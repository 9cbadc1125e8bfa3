open Farm_sim
open Farm_core
open Farm_workloads
module D = Perfbench.Derive

(* The repository benchmark: one workload per process, measured on both
   clocks. Simulated time is the modelled FaRM and is deterministic for a
   seed; host time is how fast the simulator produces it.

     bash perfbench/run.sh --workload tatp_90 --seed 1 --seconds 20 --trace 0

   --trace 0 repeats (create, load, warm-up, measured window, quiesce,
   invariant check) on fresh clusters of the same seed, as many times as
   --seconds buys at the workload's nominal cost per repeat (five at
   least, and the same count on every run), and prints the end-to-end
   metrics:
   host-time ones as the median over repeats scaled to a nominal machine
   speed (see "Host speed reference" below), simulated ones once, after
   checking that every repeat reproduced them and every count exactly.
   --trace 1 runs once untraced and once with blame attribution, causal
   tracing and OCaml runtime events on, checks that both simulated the
   same history, and prints the per-layer metrics. Layers are measured
   from outside: the benchmark wraps each operation it hands to the load
   generator and reads the obs spine's public counters at the edges of the
   measured window.

   The simulated numbers come from an unvalidated model: EXPERIMENTS.md
   compares their shapes with the paper, not their absolute values, so no
   error figure is given.

   Seeds: [default_seed] is the one used while tuning; [held_out_seed] is
   kept back for confirming a claimed gain. *)

let default_seed = 1
let held_out_seed = 7919

let model_note =
  "simulated metrics come from an unvalidated model of FaRM; compare shapes \
   with the paper, not absolute values"

(* {1 Workloads} *)

type shape =
  | Closed of { warmup : Time.t; window : Time.t }
      (** {!Driver} closed loop; [workers] per machine *)
  | Open_kill of {
      rate : float;  (** cluster-wide Poisson arrivals per second *)
      warmup : Time.t;
      crash_at : Time.t;  (** relative to load start *)
      load : Time.t;  (** arrival window; the measured window ends here *)
      drain : Time.t;
      victim : int;
    }  (** {!Openloop} with [workers] servers per machine, one crash *)

type db = {
  op : Driver.worker_ctx -> bool;
  table : Farm_kv.Hashtable.t;  (** probed by the kv.* lookups *)
  key : Rng.t -> int;  (** a key known to be in [table] *)
}

type spec = {
  name : string;
  machines : int;
  workers : int;
  params : Params.t;
  shape : shape;
  build : Cluster.t -> db;  (** region allocation and bulk load *)
  describe : (string * string) list;
  repeat_s : float;  (** nominal host seconds of one repeat *)
}

(* tatp_90 and tatp_kill_9 share TATP's database; the 90-machine cluster
   uses 128 KB regions and 1 MB logs so its 360 regions fit in host memory
   (the sizing of bench/engine_scaling.ml). *)
let tatp ~subscribers ~regions c =
  let t = Tatp.create c ~subscribers ~regions_per_table:regions in
  Tatp.load c t;
  { op = Tatp.op t; table = t.Tatp.sub; key = Tatp.random_sid t }

let ycsb ~keys ~regions c =
  let y = Ycsb.create c ~keys ~regions in
  Ycsb.load c y;
  { op = Ycsb.op Ycsb.A y; table = y.Ycsb.table; key = (fun rng -> Rng.int rng keys) }

let specs =
  [
    (* The engine's workload: the paper's cluster size, a deep event heap,
       and mostly single-row lock-free reads (about a third of operations
       commit), so a commit-path change moves it only a little. Its
       throughput swings with a period of about 40 ms from the start of
       the closed loop; the 18 ms window keeps about 64 % of operations in
       the fast lock-free mode, so the median stays clear of the slow
       mode's edge on every seed. *)
    {
      name = "tatp_90";
      machines = 90;
      workers = 12;
      params = { Params.default with Params.region_size = 1 lsl 17; log_size = 1 lsl 20 };
      shape = Closed { warmup = Time.ms 2; window = Time.ms 18 };
      build = tatp ~subscribers:10_000 ~regions:90;
      describe = [ ("subscribers", "10000"); ("regions_per_table", "90") ];
      repeat_s = 11.5;
    };
    (* The write side: half the operations are update transactions on
       zipf-skewed keys, the heap is shallow, and the commit path, the logs
       and the GC do most of the host work. *)
    {
      name = "ycsb_a_3";
      machines = 3;
      workers = 12;
      params = Params.default;
      shape = Closed { warmup = Time.ms 2; window = Time.ms 20 };
      build = ycsb ~keys:10_000 ~regions:3;
      describe = [ ("profile", "A"); ("keys", "10000"); ("regions", "3") ];
      repeat_s = 1.3;
    };
    (* The failure path: open-loop arrivals at about half the serving
       capacity, then machine 1 crashes: not the CM, and a backup of a
       third of the regions (placement makes 0, 3 and 6 the primaries).
       It is suspected about 1 ms after the crash (the fabric's failure
       timeout), long before its lease would expire, so the admission
       queues stay short. The only
       workload that runs the CM's reconfiguration, membership,
       transaction recovery and data recovery.
       Not listed in BENCHMARK.json: on a few seeds in a hundred (206,
       124576495) Invariant.check finds a new backup one version behind
       its primary after recovery, because a transaction committed by
       transaction recovery never reaches the backup that data recovery
       created. Run it by name until that is fixed. *)
    {
      name = "tatp_kill_9";
      machines = 9;
      workers = 2;
      params = Params.default;
      shape =
        Open_kill
          {
            rate = 1e6;
            warmup = Time.ms 5;
            crash_at = Time.ms 15;
            load = Time.ms 40;
            drain = Time.ms 5;
            victim = 1;
          };
      build = tatp ~subscribers:10_000 ~regions:9;
      describe = [ ("subscribers", "10000"); ("regions_per_table", "9") ];
      repeat_s = 1.6;
    };
  ]

let window_of spec =
  match spec.shape with
  | Closed { warmup; window } -> (warmup, window)
  | Open_kill k -> (k.warmup, Time.sub k.load k.warmup)

(* {1 Metric catalogue} — names and units exactly as BENCHMARK.json lists
   them. *)

let end_to_end =
  [
    ("host_ops_per_s", "1/s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("sim_ops_per_us", "1/us"); ("sim_lat_p50_us", "us"); ("sim_lat_p999_us", "us");
  ]

let commit_phases =
  [ ("execute", "execute"); ("lock", "lock"); ("validate", "validate");
    ("commit-backup", "commit_backup"); ("commit-primary", "commit_primary");
    ("truncate", "truncate") ]

let blame_categories =
  [ ("execute", "execute"); ("lock-wait", "lock_wait"); ("logring-wait", "logring_wait");
    ("nic-issue", "nic_issue"); ("propagation", "propagation"); ("poll", "poll");
    ("admission", "admission") ]

let per_layer =
  [
    ("failed_frac", "frac");
    ("engine.events_per_op", "events/op"); ("engine.host_ns_per_event", "ns");
    ("engine.pending_mean", "events"); ("engine.pending_max", "events");
    ("heap.push_pop_ns", "ns"); ("proc.resume_ns", "ns");
    ("gc.minor_words_per_op", "words/op"); ("gc.promoted_words_per_op", "words/op");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.pause_ms", "ms");
    ("fabric.rdma_reads_per_op", "count/op"); ("fabric.rdma_writes_per_op", "count/op");
    ("fabric.batches_per_op", "count/op"); ("fabric.rpcs_per_op", "count/op");
    ("nic.msgs_per_op", "count/op"); ("nic.bytes_per_op", "bytes/op");
    ("cpu.busy_frac", "frac");
    ("commit.tx_per_op", "tx/op"); ("commit.abort_ratio", "frac");
    ("commit.lock_refused_ratio", "frac");
  ]
  @ List.map (fun (_, n) -> ("commit." ^ n ^ "_ns_per_tx", "ns/tx")) commit_phases
  @ List.filter_map
      (fun (_, n) -> if n = "admission" then None else Some ("blame." ^ n ^ "_ns_per_tx", "ns/tx"))
      blame_categories
  @ [
      ("log.appends_per_tx", "count/tx"); ("log.records_per_tx", "count/tx");
      ("log.trunc_deferred_ratio", "frac");
      ("kv.lookup_host_ns", "ns"); ("kv.lookup_sim_ns", "ns");
      ("kv.rdma_reads_per_lookup", "count");
      ("lease.renewals_per_machine_ms", "1/ms");
      ("setup.create_s", "s"); ("setup.load_s", "s"); ("obs.trace_overhead_frac", "frac");
    ]

(* Metrics of the failure path, zero without a crash and open-loop
   admission: printed by the crash workload only. *)
let crash_layer =
  [
    ("sim_recovery_us", "us"); ("blame.admission_ns_per_tx", "ns/tx");
    ("recovery.detect_us", "us"); ("recovery.reconfig_us", "us");
    ("recovery.all_active_us", "us"); ("recovery.data_rec_us", "us");
    ("recovery.host_s", "s"); ("admission.wait_p999_us", "us"); ("admission.shed_frac", "frac");
  ]

let per_layer_of spec =
  match spec.shape with Closed _ -> per_layer | Open_kill _ -> per_layer @ crash_layer

(* {1 Measurement} *)

let now = Unix.gettimeofday

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Layer readings at one instant; the measured window is the difference of
   two. *)
type snap = {
  host : float;
  events : int;
  counters : (string * int) list;
  phases : (string * int) list;
  nic_msgs : int;
  nic_bytes : int;
  cpu_busy_ns : int;
  gc : Gc.stat;
}

let snap (c : Cluster.t) =
  let sum f = Array.fold_left ( + ) 0 (Array.init (Cluster.n_machines c) f) in
  let nic i = Farm_net.Fabric.nic c.Cluster.fabric i in
  {
    host = now ();
    events = Engine.events_processed c.Cluster.engine;
    counters = Cluster.merged_counters c;
    phases = Cluster.phase_totals c;
    nic_msgs = sum (fun i -> Farm_net.Nic.ops (nic i));
    nic_bytes = sum (fun i -> Farm_net.Nic.bytes_total (nic i));
    cpu_busy_ns = sum (fun i -> Time.to_ns (Cpu.busy_total (Cluster.machine c i).State.cpu));
    gc = Gc.quick_stat ();
  }

let get l name = Option.value ~default:0 (List.assoc_opt name l)
let delta a b name = get b.counters name - get a.counters name

(* Benchmark-side spans of a traced run: one per call into a layer and one
   per wrapped operation, kept in memory and written when the run ends. *)
type span = {
  s_name : string;
  s_id : int;
  s_parent : int;
  sim0 : int;
  sim1 : int;
  host0 : float;
  host1 : float;
}

type spans = { mutable next_id : int; mutable spans : span list }

let span_id sp =
  sp.next_id <- sp.next_id + 1;
  sp.next_id

let with_span sp c ~parent name f =
  match sp with
  | None -> f 0
  | Some sp ->
      let id = span_id sp in
      let sim0 = Time.to_ns (Cluster.now c) and host0 = now () in
      let r = f id in
      let s = { s_name = name; s_id = id; s_parent = parent; sim0;
                sim1 = Time.to_ns (Cluster.now c); host0; host1 = now () } in
      sp.spans <- s :: sp.spans;
      r

(* GC pause time from OCaml runtime events: wall time during which a
   minor collection or a major slice was running, outermost spans only. *)
type pauses = {
  mutable depth : int;
  mutable since : int64;
  mutable total_ns : int64;
  mutable lost : int;
  mutable poll : unit -> unit;
}

let pause_phase = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let start_pauses () =
  Runtime_events.start ();
  let p = { depth = 0; since = 0L; total_ns = 0L; lost = 0; poll = ignore } in
  let ts = Runtime_events.Timestamp.to_int64 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t ph ->
        if pause_phase ph then begin
          if p.depth = 0 then p.since <- ts t;
          p.depth <- p.depth + 1
        end)
      ~runtime_end:(fun _ t ph ->
        if pause_phase ph && p.depth > 0 then begin
          p.depth <- p.depth - 1;
          if p.depth = 0 then p.total_ns <- Int64.add p.total_ns (Int64.sub (ts t) p.since)
        end)
      ~lost_events:(fun _ n -> p.lost <- p.lost + n)
      ()
  in
  let cursor = Runtime_events.create_cursor None in
  p.poll <- (fun () -> ignore (Runtime_events.read_poll cursor callbacks None));
  p

(* {1 Host speed reference}

   The speed of a shared build machine changes by up to 2x within
   seconds, and by a fifth between runs minutes apart, as other tenants
   load its cores and caches; that moves every host-time figure of a run
   together. So the untraced end-to-end runs time a fixed kernel of their
   own every [reference_every_s] of host time inside the measured window,
   and five times before and five times after set-up (medians).
   host_ops_per_s and setup_s are scaled by the kernel's mean time over
   the same interval against [reference_nominal_s]: the figures they would
   have on a machine where the kernel takes that long. The kernel's own
   time is taken out of the window first.

   The kernel is a frozen miniature of the simulator's hot path, written
   here so that a change to the simulator cannot change it: coroutines
   that park on an effect and are resumed by timed closures popped from a
   binary heap. Its time tracks the simulator's host speed far more
   closely than a memory loop does. On a 2-vCPU shared Xeon VM, over
   twelve ycsb_a_3 runs minutes apart, log throughput against log kernel
   time had slope -1.2 and correlation -0.99, and scaling cut the spread
   of the runs' median throughput from 0.24 to 0.04 (IQR / median); a
   loop of random writes over 16 MB followed only about 0.6 of the
   slowdown. The kernel allocates a few percent of what the simulator does
   in the same time, so the traced runs, which give the per-layer GC
   figures, leave it out. Raw figures and the speed factors are kept in
   the results record. *)
let reference_nominal_s = 5e-4
let reference_every_s = 0.025

type ref_event = { ev_at : int; ev_seq : int; ev_fn : unit -> unit }
type _ Effect.t += Ref_park : ((unit -> unit) -> unit) -> unit Effect.t

let reference_kernel () =
  let t0 = now () in
  let heap = ref (Array.make 32 { ev_at = 0; ev_seq = 0; ev_fn = ignore }) in
  let len = ref 0 and seq = ref 0 and clock = ref 0 and rng = ref 12345 in
  let before a b = a.ev_at < b.ev_at || (a.ev_at = b.ev_at && a.ev_seq < b.ev_seq) in
  let push at fn =
    if !len = Array.length !heap then heap := Array.append !heap !heap;
    let h = !heap in
    incr seq;
    let e = { ev_at = at; ev_seq = !seq; ev_fn = fn } in
    let i = ref !len in
    incr len;
    while !i > 0 && before e h.((!i - 1) / 2) do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr len;
    let last = h.(!len) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !len then sifting := false
      else begin
        let c = if l + 1 < !len && before h.(l + 1) h.(l) then l + 1 else l in
        if before h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- last;
    top
  in
  let park () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    let delay = !rng land 1023 in
    Effect.perform (Ref_park (fun resume -> push (!clock + delay) resume))
  in
  let handler =
    {
      Effect.Deep.retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Ref_park register ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                  register (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  for _ = 1 to 16 do
    push 0 (fun () ->
        Effect.Deep.match_with (fun () -> for _ = 1 to 200 do park () done) () handler)
  done;
  while !len > 0 do
    let e = pop () in
    clock := e.ev_at;
    e.ev_fn ()
  done;
  now () -. t0

(* Per-run observation state, fed by the operation wrapper. *)
type probe = {
  cluster : Cluster.t;
  from_ns : int;  (** measured window, simulated ns *)
  until_ns : int;
  t0_ns : int;  (** load start: origin of [bins] *)
  bins : int array;  (** successful completions per [bin_ns] *)
  mutable lat : int array;  (** successful-op latencies in the window, ns *)
  mutable n_lat : int;
  mutable ok : int;
  mutable failed : int;
  mutable pend_sum : int;
  mutable pend_max : int;
  mutable pend_n : int;
  mutable first : snap option;
  mutable last : snap option;
  spans : spans option;
  mutable op_parent : int;  (** span id of the drive call *)
  pauses : pauses option;
  mutable pause_at_first : int64 * int;  (** pause ns, lost events *)
  mutable pause_at_last : int64 * int;
  mutable ref_s : float;  (** reference kernel time inside the window *)
  mutable ref_n : int;
  mutable ref_next : float;  (** host time of the next kernel run *)
}

let bin_ns = 100_000

let push_lat p v =
  if p.n_lat = Array.length p.lat then begin
    let a = Array.make (2 * p.n_lat) 0 in
    Array.blit p.lat 0 a 0 p.n_lat;
    p.lat <- a
  end;
  p.lat.(p.n_lat) <- v;
  p.n_lat <- p.n_lat + 1

(* The wrapper around every operation the load generator runs. It reads
   only engine time, queue length, host time and obs totals, so it cannot
   change the simulated history. The window edges are marked at the first
   completion at or after each edge, the same engine event on every
   run of a seed. *)
let wrap p op ctx =
  let engine = p.cluster.Cluster.engine in
  let t0 = Time.to_ns (Engine.now engine) in
  if t0 >= p.from_ns && t0 < p.until_ns then begin
    let pend = Engine.pending engine in
    p.pend_sum <- p.pend_sum + pend;
    p.pend_n <- p.pend_n + 1;
    if pend > p.pend_max then p.pend_max <- pend
  end;
  let h0 = if p.spans = None then 0. else now () in
  let ok = op ctx in
  let t1 = Time.to_ns (Engine.now engine) in
  (match p.spans with
  | None -> ()
  | Some sp ->
      let s = { s_name = "op"; s_id = span_id sp; s_parent = p.op_parent;
                sim0 = t0; sim1 = t1; host0 = h0; host1 = now () } in
      sp.spans <- s :: sp.spans);
  (match p.pauses with
  | Some ps when (p.ok + p.failed) land 63 = 0 -> ps.poll ()
  | _ -> ());
  let mark () =
    Option.iter (fun ps -> ps.poll ()) p.pauses;
    (Option.fold ~none:(0L, 0) ~some:(fun ps -> (ps.total_ns, ps.lost)) p.pauses, snap p.cluster)
  in
  if p.first = None && t1 >= p.from_ns then begin
    let pz, s = mark () in
    p.pause_at_first <- pz;
    p.first <- Some s
  end;
  if p.first <> None && p.last = None && now () >= p.ref_next then begin
    p.ref_s <- p.ref_s +. reference_kernel ();
    p.ref_n <- p.ref_n + 1;
    p.ref_next <- now () +. reference_every_s
  end;
  if p.last = None && t1 >= p.until_ns then begin
    let pz, s = mark () in
    p.pause_at_last <- pz;
    p.last <- Some s
  end;
  if t1 >= p.from_ns && t1 < p.until_ns then begin
    if ok then begin
      p.ok <- p.ok + 1;
      push_lat p (t1 - t0)
    end
    else p.failed <- p.failed + 1
  end;
  if ok then begin
    let b = (t1 - p.t0_ns) / bin_ns in
    if b >= 0 && b < Array.length p.bins then p.bins.(b) <- p.bins.(b) + 1
  end;
  ok

(* {1 One run} *)

type result = {
  sim : (string * float) list;  (** deterministic metrics *)
  counts : (string * int) list;  (** deterministic raw counts *)
  host : (string * float) list;  (** host-time metrics *)
  traced_only : (string * float) list;  (** metrics only a traced run has *)
  attempted : int;
  failed : int;
  window_host_s : float;
  spans : span list;
}

let first_after c tag at =
  List.find_map
    (fun (t, _, m) -> if t = tag && Time.( >= ) m at then Some m else None)
    (Cluster.milestones c)

let us_since a b = Time.to_us_float (Time.sub b a)

let run_once spec ~seed ~traced ~speed_ref =
  let sp = if traced then Some { next_id = 0; spans = [] } else None in
  let setup_kernel () =
    if speed_ref then D.median (List.init 5 (fun _ -> reference_kernel ())) else reference_nominal_s
  in
  let setup_ref0 = setup_kernel () in
  let h0 = now () in
  let c = Cluster.create ~seed ~params:spec.params ~machines:spec.machines () in
  let h1 = now () in
  let db = with_span sp c ~parent:0 "load" (fun _ -> spec.build c) in
  let h2 = now () in
  let setup_speed = (setup_ref0 +. setup_kernel ()) /. 2. /. reference_nominal_s in
  (match sp with
  | Some sp ->
      sp.spans <-
        { s_name = "create"; s_id = span_id sp; s_parent = 0; sim0 = 0; sim1 = 0;
          host0 = h0; host1 = h1 }
        :: sp.spans
  | None -> ());
  if traced then begin
    Cluster.set_blame c true;
    Cluster.set_tracing c true
  end;
  let pauses = if traced then Some (start_pauses ()) else None in
  let armed = snap c in
  let start = Cluster.now c in
  let warmup, window = window_of spec in
  let from = Time.add start warmup in
  let horizon =
    match spec.shape with
    | Closed _ -> Time.add from window
    | Open_kill k -> Time.add start (Time.add k.load k.drain)
  in
  let p =
    {
      cluster = c;
      from_ns = Time.to_ns from;
      until_ns = Time.to_ns (Time.add from window);
      t0_ns = Time.to_ns start;
      bins = Array.make ((Time.to_ns (Time.sub horizon start) / bin_ns) + 1) 0;
      lat = Array.make 4096 0;
      n_lat = 0;
      ok = 0;
      failed = 0;
      pend_sum = 0;
      pend_max = 0;
      pend_n = 0;
      first = None;
      last = None;
      spans = sp;
      op_parent = 0;
      pauses;
      pause_at_first = (0L, 0);
      pause_at_last = (0L, 0);
      ref_s = 0.;
      ref_n = 0;
      ref_next = (if speed_ref then 0. else infinity);
    }
  in
  let op = wrap p db.op in
  (* crash-only observations *)
  let crash = ref None and recovery_host_s = ref 0. in
  let open_stats = ref None in
  with_span sp c ~parent:0 "drive" (fun id ->
      p.op_parent <- id;
      match spec.shape with
      | Closed { warmup; window } ->
          ignore (Driver.run c ~workers:spec.workers ~warmup ~duration:window ~op)
      | Open_kill k ->
          let ol =
            Openloop.start c ~workers:spec.workers ~shape:Arrivals.Poisson ~rate:k.rate
              ~duration:k.load ~op
          in
          let st = Openloop.stats ol in
          let replica_of rid = List.mem_assoc k.victim (Cluster.replicas_of c rid) in
          if not (Array.exists replica_of db.table.Farm_kv.Hashtable.regions) then
            fail "machine %d holds no replica of the table" k.victim;
          Cluster.run_until c ~at:from;
          (* latency counts requests completing after warm-up *)
          Stats.Hist.clear st.Openloop.sojourn;
          Cluster.run_until c ~at:(Time.add start k.crash_at);
          let at = Cluster.now c in
          with_span sp c ~parent:id "crash" (fun _ ->
              let hk = now () in
              Farm_fault.Nemesis.apply c (Farm_fault.Schedule.Crash k.victim);
              (* drive in 100 us slices until the new configuration is
                 active everywhere: the host cost of the failover itself *)
              while
                first_after c "all-active" at = None
                && Time.( < ) (Cluster.now c) (Time.add start k.load)
              do
                Cluster.run_for c ~d:(Time.us 100)
              done;
              recovery_host_s := now () -. hk);
          crash := Some at;
          Cluster.run_until c ~at:(Time.add start k.load);
          Openloop.stop ol;
          Cluster.run_for c ~d:k.drain;
          Cluster.heal c;
          open_stats := Some ol);
  let settled = with_span sp c ~parent:0 "quiesce" (fun _ -> Cluster.quiesce c) in
  if not settled then fail "Cluster.quiesce did not settle";
  let first, last =
    match (p.first, p.last) with
    | Some a, Some b -> (a, b)
    | _ -> fail "the measured window saw no completion at one of its edges"
  in
  (match sp with
  | Some sp ->
      let drive = List.find (fun s -> s.s_name = "drive") sp.spans in
      let child name sim0 sim1 host0 host1 =
        { s_name = name; s_id = span_id sp; s_parent = drive.s_id; sim0; sim1; host0; host1 }
      in
      sp.spans <-
        child "window" p.from_ns p.until_ns first.host last.host
        :: child "warmup" drive.sim0 p.from_ns drive.host0 first.host
        :: sp.spans
  | None -> ());
  (* kv.*: the benchmark's own lock-free lookups on the loaded table *)
  let n_lookups = 2_000 in
  let kv_before = snap c and kv_sim0 = Cluster.now c in
  let found =
    with_span sp c ~parent:0 "kv" (fun _ ->
        Cluster.run_on c ~machine:(spec.machines - 1) (fun st ->
            let rng = Rng.create (seed + 1) in
            let ksize = db.table.Farm_kv.Hashtable.ksize in
            let found = ref 0 in
            for _ = 1 to n_lookups do
              let k = Bytes.make ksize '\000' in
              Bytes.set_int64_le k 0 (Int64.of_int (db.key rng));
              if Farm_kv.Hashtable.lookup_lockfree st db.table k <> None then incr found
            done;
            !found))
  in
  let kv_after = snap c and kv_sim1 = Cluster.now c in
  if found <> n_lookups then fail "kv: %d of %d loaded keys not found" (n_lookups - found) n_lookups;
  let violations = with_span sp c ~parent:0 "invariant" (fun _ -> Farm_fault.Invariant.check c) in
  (match violations with
  | [] -> ()
  | v :: _ -> fail "invariant violated (%d): %s" (List.length violations)
                (Format.asprintf "%a" Farm_fault.Invariant.pp v));
  (* {2 derivations} *)
  let ops = p.ok in
  let window_us = Time.to_us_float window in
  let commits = delta first last "tx-commit" and aborts = delta first last "tx-abort" in
  if commits <= 0 then fail "no transaction committed in the measured window";
  let per_op name = D.per_op ~before:(get first.counters name) ~after:(get last.counters name) ~ops in
  let lat = Array.sub p.lat 0 p.n_lat in
  Array.sort compare lat;
  let attempted, failed, ffrac, shed_frac, p50, p999 =
    match !open_stats with
    | None ->
        let attempted = p.ok + p.failed in
        (match D.tail_percentile p.n_lat with
        | Some q when q >= 99.9 -> ()
        | _ -> fail "%d latency samples: fewer than ten beyond p99.9" p.n_lat);
        ( attempted, p.failed,
          D.failed_frac ~attempted ~failed:p.failed ~shed:0 ~stranded:0,
          0.,
          float_of_int (D.percentile_sorted lat 50.),
          float_of_int (D.percentile_sorted lat 99.9) )
    | Some ol ->
        (* Openloop keeps sojourn times only as a Stats.Hist, so these
           percentiles are bucket upper bounds, at most 3 % above exact *)
        let st = Openloop.stats ol in
        let g = Stats.Counter.get in
        let shed = g st.Openloop.shed and submitted = g st.Openloop.submitted in
        let stranded = Openloop.stranded ol in
        let attempted = submitted + shed in
        (match D.tail_percentile (Stats.Hist.count st.Openloop.sojourn) with
        | Some q when q >= 99.9 -> ()
        | _ -> fail "%d sojourn samples: fewer than ten beyond p99.9" (Stats.Hist.count st.Openloop.sojourn));
        let failed = g st.Openloop.failed + shed + stranded in
        ( attempted, failed,
          D.failed_frac ~attempted ~failed:(g st.Openloop.failed) ~shed ~stranded,
          D.ratio shed attempted,
          float_of_int (Stats.Hist.percentile st.Openloop.sojourn 50.),
          float_of_int (Stats.Hist.percentile st.Openloop.sojourn 99.9) )
  in
  let recovery name tag =
    match !crash with
    | None -> [ (name, 0.) ]
    | Some at -> (
        match first_after c tag at with
        | Some m -> [ (name, us_since at m) ]
        | None -> fail "no %s milestone after the crash" tag)
  in
  let sim_recovery_us =
    match !crash with
    | None -> 0.
    | Some at -> (
        match
          D.recovery_ns ~bins:p.bins ~bin_ns ~t0_ns:p.t0_ns ~crash_ns:(Time.to_ns at)
            ~pre_bins:50 ~fraction:0.8
        with
        | Some ns -> float_of_int ns /. 1e3
        | None -> fail "completions never fell and came back after the crash")
  in
  let events = last.events - first.events in
  let threads =
    Array.fold_left (fun a st -> a + Cpu.threads st.State.cpu) 0 c.Cluster.machines
  in
  let sim =
    [
      ("sim_ops_per_us", float_of_int ops /. window_us);
      ("sim_lat_p50_us", p50 /. 1e3);
      ("sim_lat_p999_us", p999 /. 1e3);
      ("failed_frac", ffrac);
      ("sim_recovery_us", sim_recovery_us);
      ("engine.events_per_op", D.ratio events ops);
      ("engine.pending_mean", D.ratio p.pend_sum p.pend_n);
      ("engine.pending_max", float_of_int p.pend_max);
      ("fabric.rdma_reads_per_op", per_op "rdma-read");
      ("fabric.rdma_writes_per_op", per_op "rdma-write");
      ("fabric.batches_per_op", per_op "rdma-batch");
      ("fabric.rpcs_per_op", per_op "rpc-send" +. per_op "rpc-call");
      ("nic.msgs_per_op", D.per_op ~before:first.nic_msgs ~after:last.nic_msgs ~ops);
      ("nic.bytes_per_op", D.per_op ~before:first.nic_bytes ~after:last.nic_bytes ~ops);
      ( "cpu.busy_frac",
        float_of_int (last.cpu_busy_ns - first.cpu_busy_ns)
        /. (float_of_int threads *. window_us *. 1e3) );
      ("commit.tx_per_op", D.ratio commits ops);
      ("commit.abort_ratio", D.ratio aborts (commits + aborts));
      ( "commit.lock_refused_ratio",
        D.ratio (delta first last "lock-fail")
          (delta first last "lock-ok" + delta first last "lock-fail") );
    ]
    @ List.map
        (fun (tag, n) ->
          ( "commit." ^ n ^ "_ns_per_tx",
            D.ratio (get last.phases tag - get first.phases tag) commits ))
        commit_phases
    @ [
        ("log.appends_per_tx", D.ratio (delta first last "log-append") commits);
        ("log.records_per_tx", D.ratio (delta first last "log-record") commits);
        ( "log.trunc_deferred_ratio",
          D.ratio (delta first last "log-trunc-deferred")
            (delta first last "log-trunc" + delta first last "log-trunc-deferred") );
        ("kv.lookup_sim_ns", Time.to_ns (Time.sub kv_sim1 kv_sim0) |> fun d -> D.ratio d n_lookups);
        ("kv.rdma_reads_per_lookup", D.ratio (delta kv_before kv_after "rdma-read") n_lookups);
      ]
    @ recovery "recovery.detect_us" "suspect"
    @ recovery "recovery.reconfig_us" "config-commit"
    @ recovery "recovery.all_active_us" "all-active"
    @ recovery "recovery.data_rec_us" "data-rec-done"
    @ [
        ( "lease.renewals_per_machine_ms",
          D.ratio (delta first last "lease-renewal") spec.machines /. (window_us /. 1e3) );
        ("admission.shed_frac", shed_frac);
      ]
  in
  let counts =
    [
      ("ops", ops); ("failed_in_window", p.failed); ("attempted", attempted);
      ("failed", failed); ("window_events", events); ("commits", commits); ("aborts", aborts);
      ("total_events", Engine.events_processed c.Cluster.engine);
      ("total_committed", Cluster.total_committed c); ("total_aborted", Cluster.total_aborted c);
      ("milestones", List.length (Cluster.milestones c));
      ("sim_end_ns", Time.to_ns (Cluster.now c));
    ]
    @ List.map (fun (n, v) -> ("counter." ^ n, v)) (Cluster.merged_counters c)
  in
  if speed_ref && p.ref_n = 0 then fail "the reference kernel never ran in the measured window";
  let window_host_s = last.host -. first.host -. p.ref_s in
  let speed = if p.ref_n = 0 then 1. else p.ref_s /. float_of_int p.ref_n /. reference_nominal_s in
  let gc_delta f = f last.gc -. f first.gc in
  let host =
    [
      ("host_ops_per_s", float_of_int ops /. window_host_s *. speed);
      ("setup_s", (h2 -. h0) /. setup_speed);
      ("host_ops_per_s.raw", float_of_int ops /. window_host_s);
      ("setup_s.raw", h2 -. h0);
      ("speed.window", speed);
      ("speed.setup", setup_speed);
      ("setup.create_s", h1 -. h0);
      ("setup.load_s", h2 -. h1);
      ("engine.host_ns_per_event", window_host_s *. 1e9 /. float_of_int (max 1 events));
      ("gc.minor_words_per_op", gc_delta (fun g -> g.Gc.minor_words) /. float_of_int ops);
      ("gc.promoted_words_per_op", gc_delta (fun g -> g.Gc.promoted_words) /. float_of_int ops);
      ("gc.minor_collections", gc_delta (fun g -> float_of_int g.Gc.minor_collections));
      ("gc.major_collections", gc_delta (fun g -> float_of_int g.Gc.major_collections));
      ("kv.lookup_host_ns", (kv_after.host -. kv_before.host) *. 1e9 /. float_of_int n_lookups);
      ("recovery.host_s", !recovery_host_s);
    ]
  in
  let traced_only =
    if not traced then []
    else begin
      (* blame covers everything since arming; it must partition the
         commit phases of the same interval exactly *)
      let blame = Cluster.blame_totals c and phases = Cluster.phase_totals c in
      let sum l = List.fold_left (fun a (n, v) -> if n = "admission" then a else a + v) 0 l in
      if sum blame <> sum phases then
        fail "blame total %d ns differs from phase total %d ns" (sum blame) (sum phases);
      let armed_commits = delta armed (snap c) "tx-commit" in
      let wait_p999 =
        match List.assoc_opt "admission" (Cluster.merged_blame_hists c) with
        | Some h -> float_of_int (Stats.Hist.percentile h 99.9) /. 1e3
        | None -> 0.
      in
      let (pause0, lost0), (pause1, lost1) = (p.pause_at_first, p.pause_at_last) in
      if lost1 > lost0 then fail "runtime events lost %d events in the window" (lost1 - lost0);
      List.map
        (fun (tag, n) -> ("blame." ^ n ^ "_ns_per_tx", D.ratio (get blame tag) armed_commits))
        blame_categories
      @ [
          ("admission.wait_p999_us", wait_p999);
          ("gc.pause_ms", Int64.to_float (Int64.sub pause1 pause0) /. 1e6);
        ]
    end
  in
  {
    sim; counts; host; traced_only; attempted; failed; window_host_s;
    spans = (match sp with Some s -> List.rev s.spans | None -> []);
  }

(* {1 Standalone layer probes} *)

let batches f = D.median (List.init 5 (fun _ -> f ()))

(* One Heap.push + Heap.pop at a given depth: the hold model of an event
   queue (pop the earliest, push a successor a little later). *)
let heap_push_pop_ns ~depth =
  let h = Heap.create () in
  let rng = Rng.create 1 in
  let deltas = Array.init 4096 (fun _ -> 1 + Rng.int rng 10_000) in
  for i = 1 to max 1 depth do
    Heap.push h ~key:(Rng.int rng 1_000_000) ~seq:i ()
  done;
  let seq = ref depth in
  let n = 200_000 in
  batches (fun () ->
      let t0 = now () in
      for i = 1 to n do
        match Heap.pop h with
        | Some (k, ()) ->
            incr seq;
            Heap.push h ~key:(k + deltas.(i land 4095)) ~seq:!seq ()
        | None -> assert false
      done;
      (now () -. t0) *. 1e9 /. float_of_int n)

(* One Proc.yield round trip: park the continuation as an engine event and
   resume it. *)
let proc_resume_ns () =
  let n = 200_000 in
  batches (fun () ->
      let e = Engine.create () in
      Proc.spawn e (fun () ->
          for _ = 1 to n do
            Proc.yield ()
          done);
      let t0 = now () in
      Engine.run e;
      (now () -. t0) *. 1e9 /. float_of_int n)

(* Peak resident set of this process (Linux VmHWM), MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> fail "VmHWM missing from /proc/self/status"
      in
      find ())

(* {1 Output} *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s = Printf.sprintf "%S" s

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let metrics_json catalogue values =
  json_obj
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name values with
           | Some v when Float.is_finite v -> v
           | Some _ -> fail "metric %s is not finite" name
           | None -> fail "metric %s was not measured" name
         in
         (name, json_obj [ ("value", json_num v); ("unit", json_str unit) ]))
       catalogue)

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let out_dir = ".perfbench"

let spans_jsonl spans =
  String.concat ""
    (List.map
       (fun s ->
         json_obj
           [ ("name", json_str s.s_name); ("id", string_of_int s.s_id);
             ("parent", string_of_int s.s_parent); ("sim_start_ns", string_of_int s.sim0);
             ("sim_end_ns", string_of_int s.sim1); ("host_start_s", json_num s.host0);
             ("host_end_s", json_num s.host1) ]
         ^ "\n")
       spans)

(* Deterministic fields must repeat exactly: across repeats of a seed and
   between the traced and the untraced run. *)
let check_same ~what (a : result) (b : result) =
  let diff l1 l2 pp =
    List.iter2
      (fun (n1, v1) (n2, v2) ->
        if n1 <> n2 || v1 <> v2 then
          fail "%s: %s differs (%s vs %s)" what n1 (pp v1) (pp v2))
      l1 l2
  in
  if List.length a.sim <> List.length b.sim || List.length a.counts <> List.length b.counts
  then fail "%s: different sets of deterministic fields" what;
  diff a.sim b.sim json_num;
  diff a.counts b.counts string_of_int

let record spec ~seed ~trace ~repeats ~det ~host =
  json_obj
    [
      ("rev", json_str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_REV")));
      ("workload", json_str spec.name);
      ("seed", string_of_int seed);
      ("default_seed", string_of_int default_seed);
      ("held_out_seed", string_of_int held_out_seed);
      ("traced", string_of_bool trace);
      ( "params",
        json_obj
          ([ ("machines", string_of_int spec.machines); ("workers_per_machine", string_of_int spec.workers);
             ("warmup_ms", json_num (Time.to_ms_float (fst (window_of spec))));
             ("window_ms", json_num (Time.to_ms_float (snd (window_of spec)))) ]
          @ List.map (fun (k, v) -> (k, json_str v)) spec.describe) );
      ( "shape",
        json_obj
          (match spec.shape with
          | Closed _ -> [ ("loop", json_str "closed") ]
          | Open_kill k ->
              [ ("loop", json_str "open"); ("rate_per_s", json_num k.rate);
                ("crash_at_ms", json_num (Time.to_ms_float k.crash_at));
                ("load_ms", json_num (Time.to_ms_float k.load)); ("victim", string_of_int k.victim) ]) );
      ("repeats", string_of_int repeats);
      ("note", json_str model_note);
      ("deterministic", json_obj (List.map (fun (k, v) -> (k, json_num v)) det));
      ("host", json_obj (List.map (fun (k, v) -> (k, json_num v)) host));
    ]

let run spec ~seed ~seconds ~trace =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let tag = Printf.sprintf "%s-seed%d-trace%d" spec.name seed (if trace then 1 else 0) in
  let attempted l = List.fold_left (fun a r -> a + r.attempted) 0 l in
  let failed l = List.fold_left (fun a r -> a + r.failed) 0 l in
  let counts_det r = List.map (fun (k, v) -> (k, float_of_int v)) r.counts in
  let metrics, rec_json, results =
    if not trace then begin
      (* a fixed number of repeats for the given --seconds, so every run
         of a seed does the same work and peak_rss_mb compares; five at
         least, because a repeat's window time varies by up to a quarter
         on a shared machine and the first repeat in a process, which
         grows the heap, is often the slowest *)
      let repeats = max 5 (int_of_float (seconds /. spec.repeat_s)) in
      let rs =
        List.init repeats (fun _ ->
            let r = run_once spec ~seed ~traced:false ~speed_ref:true in
            Gc.full_major ();
            r)
      in
      List.iter (check_same ~what:"repeat" (List.hd rs)) (List.tl rs);
      let r0 = List.hd rs in
      let med name = D.median (List.map (fun r -> List.assoc name r.host) rs) in
      let host =
        [ ("host_ops_per_s", med "host_ops_per_s"); ("setup_s", med "setup_s");
          ("peak_rss_mb", peak_rss_mb ()) ]
      in
      let raw =
        [ ("host_ops_per_s.raw", med "host_ops_per_s.raw"); ("setup_s.raw", med "setup_s.raw");
          ("reference_nominal_s", reference_nominal_s) ]
        @ List.concat
            (List.mapi
               (fun i r ->
                 List.map
                   (fun n -> (Printf.sprintf "%s.%d" n i, List.assoc n r.host))
                   [ "host_ops_per_s"; "host_ops_per_s.raw"; "speed.window"; "speed.setup" ]
                 @ [ (Printf.sprintf "window_host_s.%d" i, r.window_host_s) ])
               rs)
      in
      ( metrics_json end_to_end (host @ r0.sim),
        record spec ~seed ~trace ~repeats ~det:(r0.sim @ counts_det r0) ~host:(host @ raw),
        rs )
    end
    else begin
      let ru = run_once spec ~seed ~traced:false ~speed_ref:false in
      Gc.full_major ();
      let rt = run_once spec ~seed ~traced:true ~speed_ref:false in
      check_same ~what:"traced run" ru rt;
      let depth = int_of_float (Float.round (List.assoc "engine.pending_mean" ru.sim)) in
      let micro =
        [ ("heap.push_pop_ns", heap_push_pop_ns ~depth); ("proc.resume_ns", proc_resume_ns ());
          ("obs.trace_overhead_frac", (rt.window_host_s /. ru.window_host_s) -. 1.) ]
      in
      let values = ru.sim @ ru.host @ rt.traced_only @ micro in
      write_file (Filename.concat out_dir ("spans-" ^ tag ^ ".jsonl")) (spans_jsonl rt.spans);
      ( metrics_json (per_layer_of spec) values,
        record spec ~seed ~trace ~repeats:1 ~det:(ru.sim @ counts_det ru)
          ~host:(ru.host @ rt.traced_only @ micro),
        [ ru; rt ] )
    end
  in
  write_file (Filename.concat out_dir ("result-" ^ tag ^ ".json")) (rec_json ^ "\n");
  print_endline rec_json;
  print_endline
    (json_obj
       [ ("correct", "true"); ("attempted", string_of_int (attempted results));
         ("failed", string_of_int (failed results)); ("metrics", metrics) ])

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (tatp_90|ycsb_a_3|tatp_kill_9) [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 20. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec =
    match !workload with
    | None -> usage ()
    | Some w -> (
        match List.find_opt (fun s -> s.name = w) specs with
        | Some s -> s
        | None ->
            Printf.eprintf "unknown workload %S\n" w;
            exit 2)
  in
  try run spec ~seed:!seed ~seconds:!seconds ~trace:!trace
  with Check_failed msg ->
    Printf.eprintf "perfbench %s: check failed: %s\n" spec.name msg;
    exit 1

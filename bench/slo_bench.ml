open Farm_sim
open Farm_core
open Farm_workloads
open Farm_fault

(* SLO under gray failures: TATP driven open-loop through a bounded
   admission queue while one machine degrades — slow/lossy NIC, asymmetric
   partition, CPU throttling, lease flapping — with a healthy baseline for
   reference. Per scenario: goodput, sojourn percentiles (p50/p99/p999,
   queueing included — the open loop is what makes gray damage visible),
   shed load, and the longest cluster-wide commit stall from the 1 ms
   timeline sampler. The SLO probes gate each scenario: a stall must
   coincide with suspicion evidence, queues must drain after heal, nothing
   may stay parked.

   Everything derives from the per-scenario seed; scenarios are
   independent worlds sharded over domains, and the JSON artifact
   (BENCH_slo.json) is byte-identical across reruns and --jobs counts. *)

type scenario = {
  label : string;
  shape : Arrivals.shape;
  rate : float;  (* cluster-wide arrivals/s *)
  faults : Schedule.event list;  (* relative to the load window start *)
}

let machines = 6
let subscribers = 2_000
let queue_cap = 64
let serve_workers = 2
let seed = 42

let params = { Params.default with Params.lease_duration = Time.ms 5 }
let lease = params.Params.lease_duration

(* Fault window: degrade at 30 ms, heal at 80 ms, load stops at [window]. *)
let fault_at = Time.ms 30
let heal_at = Time.ms 80

let ev at fault = { Schedule.at; fault }

let scenarios ~window:_ =
  [
    { label = "baseline"; shape = Arrivals.Poisson; rate = 40_000.; faults = [] };
    {
      label = "slow_nic";
      shape = Arrivals.Self_similar { b = 0.72 };
      rate = 40_000.;
      faults =
        [
          ev fault_at (Schedule.Slow_nic { machine = 1; delay_factor = 4.; loss = 0.08 });
          ev heal_at (Schedule.Nic_heal 1);
        ];
    };
    {
      label = "asym_partition";
      shape = Arrivals.Poisson;
      rate = 40_000.;
      faults =
        [
          ev fault_at (Schedule.Asym_partition { srcs = [ 1 ]; dsts = [ 2 ] });
          ev heal_at Schedule.Heal;
        ];
    };
    {
      label = "cpu_slow";
      shape = Arrivals.Diurnal { trough = 0.4 };
      rate = 40_000.;
      faults =
        [
          ev fault_at (Schedule.Cpu_slow { machine = 1; factor = 4 });
          ev heal_at (Schedule.Cpu_heal 1);
        ];
    };
    {
      label = "lease_flap";
      shape = Arrivals.Flash { at = 0.45; magnitude = 5.; width = 0.3 };
      rate = 40_000.;
      faults =
        [
          ev fault_at
            (Schedule.Lease_flap
               { machine = 1; period = lease; count = 5;
                 stall = Time.div_int (Time.mul_int lease 3) 4 });
        ];
    };
  ]

type result = {
  r_label : string;
  r_shape : string;
  r_rate : float;
  r_offered : int;  (* submitted + shed = everything that arrived *)
  r_submitted : int;
  r_shed : int;
  r_completed : int;
  r_failed : int;
  r_stranded : int;  (* admitted but never served: lost to eviction/death *)
  r_goodput : float;  (* completed per second of load window *)
  r_p50_us : float;
  r_p99_us : float;
  r_p999_us : float;
  r_max_stall_ms : int;  (* longest cluster-wide zero-commit run, sampler bins *)
  r_blame : (string * int) list;  (* latency-blame ns totals, all tx *)
  r_tail : (string * int) list;  (* blame of the slowest exemplar tx only *)
  r_violations : string list;
  r_block : string;  (* rendered human-readable output *)
}

(* "cat 42% cat 30% ..." — categories by share, largest first, of one blame
   total list; sub-1% categories folded away. *)
let pct_line blame =
  let tot = List.fold_left (fun acc (_, v) -> acc + v) 0 blame in
  if tot = 0 then "n/a"
  else
    List.filter_map
      (fun (name, v) ->
        let pct = 100 * v / tot in
        if pct < 1 then None else Some (Printf.sprintf "%s %d%%" name pct))
      (List.stable_sort (fun (_, a) (_, b) -> compare b a) blame)
    |> String.concat "  "

(* Longest zero-run (ms) of the sampler's merged per-ms commits between the
   first and last nonzero bins. *)
let max_stall_ms rows =
  let vals = List.map snd rows in
  let arr = Array.of_list vals in
  let first = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun i v ->
      if v > 0 then begin
        if !first < 0 then first := i;
        last := i
      end)
    arr;
  if !first < 0 then 0
  else begin
    let best = ref 0 and cur = ref 0 in
    for i = !first to !last do
      if arr.(i) = 0 then begin
        incr cur;
        if !cur > !best then best := !cur
      end
      else cur := 0
    done;
    !best
  end

let run_scenario ~window ~drain (sc : scenario) : result =
  let c = Cluster.create ~seed ~params ~machines () in
  let tatp = Tatp.create c ~subscribers ~regions_per_table:2 in
  Tatp.load c tatp;
  (* armed after load: the attribution below covers the open-loop window
     only. Determinism-inert — the history is identical either way. *)
  Cluster.set_blame c true;
  let op = Tatp.op tatp in
  let start = Cluster.now c in
  (* open loop first so its queue gauges join the sampler's standard set *)
  let ol =
    Openloop.start c ~queue_cap ~workers:serve_workers ~shape:sc.shape ~rate:sc.rate
      ~duration:window ~op
  in
  let horizon = Time.add (Time.add start window) (Time.add drain (Time.ms 200)) in
  Cluster.start_sampling c ~until:horizon;
  Nemesis.run c ~start { Schedule.seed; machines; events = sc.faults };
  Cluster.run_until c ~at:(Time.add start window);
  Openloop.stop ol;
  Cluster.run_for c ~d:drain;
  Cluster.heal c;
  let settled = Cluster.quiesce c in
  Cluster.run_for c ~d:(Time.ms 60);
  let st = Openloop.stats ol in
  let violations =
    (if settled then [] else [ "slo: cluster failed to quiesce" ])
    @ Probes.no_global_stall c @ Probes.no_parked_tx c
    @ Probes.queues_drained
        ~queues:(fun () -> Openloop.queue_depths ~members_only:true ol)
        ()
  in
  let submitted = Stats.Counter.get st.Openloop.submitted in
  let shed = Stats.Counter.get st.Openloop.shed in
  let completed = Stats.Counter.get st.Openloop.completed in
  let failed = Stats.Counter.get st.Openloop.failed in
  let pct p = float_of_int (Stats.Hist.percentile st.Openloop.sojourn p) /. 1e3 in
  let stall = max_stall_ms (Failure_bench.merged_commits c) in
  let goodput = float_of_int completed /. Time.to_s_float window in
  let stranded = Openloop.stranded ol in
  let blame = Cluster.blame_totals c in
  let tail = Cluster.tail_blame c in
  let block =
    Fmt.str "%-14s %-24s offered %6d  shed %5d  goodput %9.0f/s@.%s%s@.%s@.%a"
      sc.label
      (Fmt.str "%a" Arrivals.pp_shape sc.shape)
      (submitted + shed) shed goodput
      (Fmt.str
         "               sojourn p50 %8.1f us  p99 %8.1f us  p999 %8.1f us  max-stall %d ms"
         (pct 50.) (pct 99.) (pct 99.9) stall)
      (if stranded = 0 then ""
       else Fmt.str "  stranded %d (evicted/dead machine)" stranded)
      (Fmt.str "               p999 attribution (slowest tx): %s" (pct_line tail))
      Fmt.(list ~sep:nop (fmt "               VIOLATION: %s@."))
      violations
  in
  {
    r_label = sc.label;
    r_shape = Fmt.str "%a" Arrivals.pp_shape sc.shape;
    r_rate = sc.rate;
    r_offered = submitted + shed;
    r_submitted = submitted;
    r_shed = shed;
    r_completed = completed;
    r_failed = failed;
    r_stranded = stranded;
    r_goodput = goodput;
    r_p50_us = pct 50.;
    r_p99_us = pct 99.;
    r_p999_us = pct 99.9;
    r_max_stall_ms = stall;
    r_blame = blame;
    r_tail = tail;
    r_violations = violations;
    r_block = block;
  }

let json_blame blame =
  String.concat ","
    (List.map
       (fun (name, ns) -> Printf.sprintf "\"%s\":%d" (Failure_bench.json_escape name) ns)
       blame)

let write_json results oc =
  Printf.fprintf oc "{\"bench\":\"slo\",\"scenarios\":[";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "{\"label\":\"%s\",\"shape\":\"%s\",\"rate_per_s\":%.0f,\"offered\":%d,\"submitted\":%d,\"shed\":%d,\"completed\":%d,\"failed\":%d,\"stranded\":%d,\"goodput_per_s\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f,\"max_stall_ms\":%d,\"blame_ns\":{%s},\"tail_blame_ns\":{%s},\"violations\":[%s]}"
        (Failure_bench.json_escape r.r_label)
        (Failure_bench.json_escape r.r_shape)
        r.r_rate r.r_offered r.r_submitted r.r_shed r.r_completed r.r_failed
        r.r_stranded r.r_goodput
        r.r_p50_us r.r_p99_us r.r_p999_us r.r_max_stall_ms
        (json_blame r.r_blame) (json_blame r.r_tail)
        (String.concat ","
           (List.map (fun v -> "\"" ^ Failure_bench.json_escape v ^ "\"") r.r_violations)))
    results;
  Printf.fprintf oc "]}\n"

(* {1 Baseline regression check (CI)}

   Key SLO fields of the checked-in BENCH_slo.json, matched per scenario
   label: fresh goodput must stay above baseline/1.2 and fresh p999 under
   baseline*1.2. Same tolerant Str scan as the engine-scaling check. *)

let baseline_slo file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let out = ref [] in
  let re_label = Str.regexp {|"label":"\([a-z_]+\)"|} in
  let re_goodput = Str.regexp {|"goodput_per_s":\([0-9.]+\)|} in
  let re_p999 = Str.regexp {|"p999_us":\([0-9.]+\)|} in
  let pos = ref 0 in
  (try
     while true do
       let m = Str.search_forward re_label s !pos in
       let label = Str.matched_group 1 s in
       let gpos = Str.search_forward re_goodput s m in
       let goodput = float_of_string (Str.matched_group 1 s) in
       let _ = Str.search_forward re_p999 s gpos in
       let p999 = float_of_string (Str.matched_group 1 s) in
       out := (label, (goodput, p999)) :: !out;
       pos := gpos + 1
     done
   with Not_found -> ());
  List.rev !out

let check_against ~baseline_file results =
  let base = baseline_slo baseline_file in
  let failures = ref 0 in
  List.iter
    (fun r ->
      match List.assoc_opt r.r_label base with
      | None -> ()
      | Some (goodput_b, p999_b) ->
          let goodput_floor = goodput_b /. 1.2 and p999_ceil = p999_b *. 1.2 in
          if r.r_goodput < goodput_floor then begin
            incr failures;
            Fmt.pr "  REGRESSION: %s: goodput %.1f/s vs baseline %.1f (floor %.1f)@."
              r.r_label r.r_goodput goodput_b goodput_floor
          end
          else
            Fmt.pr "  ok: %s: goodput %.1f/s (baseline %.1f, floor %.1f)@." r.r_label
              r.r_goodput goodput_b goodput_floor;
          if r.r_p999_us > p999_ceil then begin
            incr failures;
            Fmt.pr "  REGRESSION: %s: p999 %.1f us vs baseline %.1f (ceiling %.1f)@."
              r.r_label r.r_p999_us p999_b p999_ceil
          end
          else
            Fmt.pr "  ok: %s: p999 %.1f us (baseline %.1f, ceiling %.1f)@." r.r_label
              r.r_p999_us p999_b p999_ceil)
    results;
  !failures = 0

let run ?(smoke = false) ?check_baseline () =
  Bench_util.header "SLO under gray failures (open-loop TATP)"
    "graceful degradation: Fig 16's lease stack under slow-but-alive faults";
  (* the checked-in baseline is a full-window artifact; comparing a smoke
     run against it would always "regress" *)
  let smoke = smoke && check_baseline = None in
  let window = if smoke then Time.ms 60 else Time.ms 120 in
  let drain = Time.ms 40 in
  Fmt.pr
    "machines=%d  tatp subscribers=%d  open-loop rate=40000/s  queue cap=%d/machine  \
     window=%dms@.@."
    machines subscribers queue_cap
    (Bench_util.ms_of window);
  let results =
    Bench_util.shard_map (fun sc -> run_scenario ~window ~drain sc) (scenarios ~window)
  in
  List.iter (fun r -> Fmt.pr "%s@." r.r_block) results;
  let bad = List.concat_map (fun r -> r.r_violations) results in
  if bad = [] then Fmt.pr "slo probes: all scenarios clean@."
  else Fmt.pr "slo probes: %d violation(s) — see above@." (List.length bad);
  match check_baseline with
  | Some file ->
      Fmt.pr "@.checking against baseline %s (goodput floor /1.2, p999 ceiling *1.2):@."
        file;
      if not (check_against ~baseline_file:file results) then begin
        Fmt.epr "slo: SLO regression against %s@." file;
        exit 1
      end
  | None -> Bench_util.write_artifact "BENCH_slo.json" (write_json results)

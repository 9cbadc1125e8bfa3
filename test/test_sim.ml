open Farm_sim

let test name fn = Alcotest.test_case name `Quick fn
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Heap} *)

let heap_sorted () =
  let h = Heap.create () in
  let rng = Rng.create 7 in
  let n = 1000 in
  for i = 0 to n - 1 do
    Heap.push h ~key:(Rng.int rng 100) ~seq:i i
  done;
  let prev = ref min_int in
  for _ = 1 to n do
    match Heap.pop h with
    | Some (k, _) ->
        check_bool "keys non-decreasing" true (k >= !prev);
        prev := k
    | None -> Alcotest.fail "heap empty too early"
  done;
  check_bool "empty at end" true (Heap.is_empty h)

let heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:5 ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, v) -> check_int "FIFO among equal keys" i v
    | None -> Alcotest.fail "missing entry"
  done

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* A popped value must not stay reachable from a vacated slot. Values are
   built and pushed in a function of their own so that no stack slot of
   the test keeps them alive. With keys 1..4 pushed in order, the third
   pop leaves the key-3 value behind in slot 2 unless slots are cleared. *)
let push_tracked h w =
  for key = 1 to Weak.length w do
    let v = ref key in
    Weak.set w (key - 1) (Some v);
    Heap.push h ~key ~seq:key v
  done

let heap_releases_popped () =
  let h = Heap.create ~dummy:(ref 0) () in
  let w = Weak.create 4 in
  push_tracked h w;
  for key = 1 to 3 do
    match Heap.pop h with Some (k, _) -> check_int "pop order" key k | None -> assert false
  done;
  Gc.full_major ();
  for key = 1 to 3 do
    check_bool (Printf.sprintf "popped value %d collected" key) false (Weak.check w (key - 1))
  done;
  check_bool "queued value kept" true (Weak.check w 3);
  check_int "one left" 1 (Heap.length h)

let heap_floats () =
  let h = Heap.create ~dummy:0. () in
  List.iteri (fun i x -> Heap.push h ~key:(int_of_float x) ~seq:i x) [ 3.5; 1.5; 2.5 ];
  let rec drain acc = match Heap.pop h with Some (_, x) -> drain (x :: acc) | None -> List.rev acc in
  Alcotest.(check (list (float 0.))) "float values" [ 1.5; 2.5; 3.5 ] (drain [])

(* {1 Engine} *)

let engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~at:(Time.us 3) (fun () -> order := 3 :: !order);
  Engine.schedule e ~at:(Time.us 1) (fun () -> order := 1 :: !order);
  Engine.schedule e ~at:(Time.us 2) (fun () -> order := 2 :: !order);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~at:(Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) e;
  check_bool "not yet fired" false !fired;
  check_int "clock at until" (Time.to_ns (Time.ms 5)) (Time.to_ns (Engine.now e));
  Engine.run ~until:(Time.ms 20) e;
  check_bool "fired in second run" true !fired

let engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:(Time.us 1) (fun () -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !order)

let engine_past_clamped () =
  let e = Engine.create () in
  Engine.schedule e ~at:(Time.ms 1) (fun () ->
      Engine.schedule e ~at:Time.zero (fun () ->
          check_int "clamped to now" (Time.to_ns (Time.ms 1)) (Time.to_ns (Engine.now e))));
  Engine.run e

(* Order model: a program is a forest of events; each event, when it
   runs, schedules its children at an offset from the current instant
   (negative offsets are in the past and clamp to [now]) and may call
   [stop]. The engine is driven by a series of [run ~until] calls and a
   final unbounded [run]. The reference is a plain list sorted by
   (clamped instant, scheduling order), with [run]'s documented [until]
   and [stop] rules; execution order, instants, [pending] inside each
   event and the clock and [pending] after each [run] must all agree. *)
type prog_node = { id : int; offset : int; stops : bool; kids : prog_node list }
type prog_shape = Shape of int * bool * prog_shape list

let prog_gen =
  let open QCheck.Gen in
  let offset = frequency [ (3, return 0); (2, int_range (-3) (-1)); (4, int_range 1 6) ] in
  let node =
    fix (fun self depth ->
        let* offset = offset in
        let* stops = frequency [ (1, return true); (12, return false) ] in
        let* kids = if depth = 0 then return [] else list_size (int_bound 3) (self (depth - 1)) in
        return (Shape (offset, stops, kids)))
  in
  let* roots = list_size (int_range 1 6) (node 3) in
  let* untils = list_size (int_bound 4) (int_bound 30) in
  let next = ref 0 in
  let rec number (Shape (offset, stops, kids)) =
    let id = !next in
    incr next;
    { id; offset; stops; kids = List.map number kids }
  in
  return (List.map number roots, untils)

(* each log entry: event id, instant it ran at, pending while it ran *)
type log = { mutable events : (int * int * int) list; mutable checkpoints : (int * int) list }

let run_engine (roots, untils) =
  let e = Engine.create () in
  let log = { events = []; checkpoints = [] } in
  let rec schedule node =
    Engine.schedule e ~at:(Time.add (Engine.now e) node.offset) (fun () ->
        log.events <- (node.id, Engine.now e, Engine.pending e) :: log.events;
        List.iter schedule node.kids;
        if node.stops then Engine.stop e)
  in
  List.iter schedule roots;
  let checkpoint () = log.checkpoints <- (Engine.now e, Engine.pending e) :: log.checkpoints in
  List.iter
    (fun u ->
      Engine.run ~until:u e;
      checkpoint ())
    untils;
  (* an unbounded run ends at a [stop] or an empty queue: resume until empty *)
  while Engine.pending e > 0 do
    Engine.run e;
    checkpoint ()
  done;
  log

let run_model (roots, untils) =
  let now = ref 0 and order = ref 0 and stopped = ref false in
  let queue = ref [] in
  let log = { events = []; checkpoints = [] } in
  let schedule node =
    incr order;
    queue := (max !now (!now + node.offset), !order, node) :: !queue
  in
  let earliest () =
    List.fold_left
      (fun best ((at, o, _) as x) ->
        match best with
        | Some (bat, bo, _) when bat < at || (bat = at && bo < o) -> best
        | _ -> Some x)
      None !queue
  in
  let run until =
    stopped := false;
    let continue = ref true in
    while !continue && not !stopped do
      match earliest () with
      | None -> continue := false
      | Some (at, _, _) when (match until with Some l -> at > l | None -> false) ->
          now := Option.get until;
          continue := false
      | Some ((at, _, node) as x) ->
          queue := List.filter (fun y -> y != x) !queue;
          now := at;
          log.events <- (node.id, !now, List.length !queue) :: log.events;
          List.iter schedule node.kids;
          if node.stops then stopped := true
    done;
    (match until with Some l when !now < l && not !stopped -> now := l | _ -> ());
    log.checkpoints <- (!now, List.length !queue) :: log.checkpoints
  in
  List.iter schedule roots;
  List.iter (fun u -> run (Some u)) untils;
  while !queue <> [] do
    run None
  done;
  log

let engine_order_model =
  QCheck.Test.make ~name:"engine order matches (instant, scheduling order) model" ~count:500
    (QCheck.make prog_gen) (fun prog ->
      let a = run_engine prog and b = run_model prog in
      a.events = b.events && a.checkpoints = b.checkpoints)

(* A finished event's closure must not stay reachable from the lane or
   the heap. *)
let schedule_tracked e ~at w =
  let v = ref 0 in
  Weak.set w 0 (Some v);
  Engine.schedule e ~at (fun () -> incr v)

let engine_releases_finished () =
  let e = Engine.create () in
  let lane = Weak.create 1 and heap = Weak.create 1 in
  schedule_tracked e ~at:(Engine.now e) lane;
  schedule_tracked e ~at:(Time.us 1) heap;
  (* a later event keeps the heap non-empty *)
  Engine.schedule e ~at:(Time.us 5) (fun () -> ());
  Engine.run ~until:(Time.us 2) e;
  Gc.full_major ();
  check_bool "lane event collected" false (Weak.check lane 0);
  check_bool "heap event collected" false (Weak.check heap 0);
  check_int "later event still queued" 1 (Engine.pending e)

(* Words per event: once the lane and the heap have grown, dispatching a
   preallocated closure allocates nothing in the engine or the heap. *)
let engine_zero_alloc () =
  let e = Engine.create () in
  let fired = ref 0 in
  let tick () = incr fired in
  let n = 1000 in
  let via_lane () =
    for _ = 1 to n do
      Engine.schedule e ~at:(Engine.now e) tick
    done;
    Engine.run e
  in
  let via_heap () =
    for i = 1 to n do
      Engine.schedule_in e ~after:(Time.ns (i mod 7)) tick
    done;
    Engine.run e
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  via_lane ();
  via_heap ();
  let base = words (fun () -> ()) in
  let lane = (words via_lane -. base) /. float_of_int n in
  let heap = (words via_heap -. base) /. float_of_int n in
  Alcotest.(check (float 0.)) "lane words/event" 0. lane;
  Alcotest.(check (float 0.)) "heap words/event" 0. heap;
  check_int "every event ran" (4 * n) !fired

(* {1 Processes} *)

let proc_sleep () =
  let e = Engine.create () in
  let woke = ref Time.zero in
  Proc.spawn e (fun () ->
      Proc.sleep (Time.us 100);
      woke := Proc.now ());
  Engine.run e;
  check_int "slept 100us" (Time.to_ns (Time.us 100)) (Time.to_ns !woke)

let proc_cancellation () =
  let e = Engine.create () in
  let ctx = Proc.Ctx.create () in
  let reached = ref false in
  Proc.spawn ~ctx e (fun () ->
      Proc.sleep (Time.ms 10);
      reached := true);
  Engine.schedule e ~at:(Time.ms 1) (fun () -> Proc.Ctx.cancel ctx);
  Engine.run e;
  check_bool "cancelled before wake" false !reached

let proc_cancel_before_start () =
  let e = Engine.create () in
  let ctx = Proc.Ctx.create () in
  Proc.Ctx.cancel ctx;
  let ran = ref false in
  Proc.spawn ~ctx e (fun () -> ran := true);
  Engine.run e;
  check_bool "never ran" false !ran

let ivar_basic () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Proc.spawn e (fun () -> got := Ivar.read iv);
  Proc.spawn e (fun () ->
      Proc.sleep (Time.us 50);
      Ivar.fill iv 42);
  Engine.run e;
  check_int "ivar value" 42 !got

let ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 5 do
    Proc.spawn e (fun () -> sum := !sum + Ivar.read iv)
  done;
  Engine.schedule e ~at:(Time.us 10) (fun () -> Ivar.fill iv 7);
  Engine.run e;
  check_int "all readers woke" 35 !sum

let ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "second fill rejected" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Ivar.fill iv 2);
  Ivar.fill_if_empty iv 3;
  check_int "fill_if_empty keeps first" 1 (Option.get (Ivar.peek iv))

let ivar_on_fill () =
  let iv = Ivar.create () in
  let seen = ref [] in
  Ivar.on_fill iv (fun v -> seen := v :: !seen);
  Ivar.fill iv 9;
  Ivar.on_fill iv (fun v -> seen := (v * 10) :: !seen);
  Alcotest.(check (list int)) "callbacks" [ 90; 9 ] !seen

let mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Proc.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.schedule e ~at:(Time.us 1) (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !got)

(* {1 CPU} *)

let cpu_parallelism () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:2 in
  let finish = ref [] in
  for _ = 1 to 4 do
    Proc.spawn e (fun () ->
        Cpu.exec cpu ~cost:(Time.us 10);
        finish := Time.to_us_float (Proc.now ()) :: !finish)
  done;
  Engine.run e;
  (* 4 jobs of 10us on 2 threads: two finish at 10us, two at 20us *)
  let sorted = List.sort compare !finish in
  Alcotest.(check (list (float 0.01))) "G/G/2 completion times" [ 10.; 10.; 20.; 20. ] sorted

let cpu_queue_delay () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:1 in
  Proc.spawn e (fun () -> Cpu.exec cpu ~cost:(Time.us 100));
  Engine.run ~until:(Time.us 1) e;
  let d = Time.to_us_float (Cpu.queue_delay cpu) in
  Alcotest.(check (float 0.01)) "queue delay" 99. d

let cpu_busy_accounting () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:4 in
  for _ = 1 to 10 do
    Cpu.exec_bg cpu ~cost:(Time.us 5) (fun () -> ())
  done;
  Engine.run e;
  check_int "busy total" (Time.to_ns (Time.us 50)) (Time.to_ns (Cpu.busy_total cpu))

(* {1 RNG} *)

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.int a 1000 = Rng.int b 1000)
  done

let rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
  check_bool "split streams differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_nat)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Rng.float rng in
      f >= 0. && f < 1.)

(* {1 Stats} *)

let hist_percentiles () =
  let h = Stats.Hist.create () in
  for i = 1 to 1000 do
    Stats.Hist.record h i
  done;
  check_int "count" 1000 (Stats.Hist.count h);
  let p50 = Stats.Hist.percentile h 50. in
  check_bool "p50 near 500" true (p50 >= 480 && p50 <= 530);
  let p99 = Stats.Hist.percentile h 99. in
  check_bool "p99 near 990" true (p99 >= 960 && p99 <= 1030);
  check_int "max exact" 1000 (Stats.Hist.max_value h)

let hist_empty () =
  let h = Stats.Hist.create () in
  check_int "empty percentile" 0 (Stats.Hist.percentile h 99.);
  check_int "empty count" 0 (Stats.Hist.count h)

let hist_merge () =
  let a = Stats.Hist.create () and b = Stats.Hist.create () in
  Stats.Hist.record a 10;
  Stats.Hist.record b 1_000_000;
  Stats.Hist.merge ~into:a b;
  check_int "merged count" 2 (Stats.Hist.count a);
  check_bool "merged max" true (Stats.Hist.max_value a = 1_000_000)

let hist_accuracy =
  QCheck.Test.make ~name:"histogram percentile within 5%" ~count:100
    QCheck.(list_of_size (Gen.int_range 10 500) (int_range 1 1_000_000))
    (fun samples ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.record h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let exact = sorted.((n * 9 / 10) - 1 + (if n * 9 mod 10 = 0 then 0 else 1)) in
      let approx = Stats.Hist.percentile h 90. in
      (* log-bucketed: allow 5% relative error plus small absolute slack *)
      abs (approx - exact) <= (exact / 20) + 2 || approx >= exact)

let series_binning () =
  let s = Stats.Series.create ~bin:(Time.ms 1) in
  Stats.Series.add s ~at:(Time.us 500) 1;
  Stats.Series.add s ~at:(Time.us 999) 2;
  Stats.Series.add s ~at:(Time.us 1001) 5;
  check_int "bin 0" 3 (Stats.Series.get s 0);
  check_int "bin 1" 5 (Stats.Series.get s 1);
  check_int "bin 2 empty" 0 (Stats.Series.get s 2)

let series_growth () =
  let s = Stats.Series.create ~bin:(Time.us 1) in
  Stats.Series.add s ~at:(Time.ms 100) 7;
  check_int "late bin" 7 (Stats.Series.get s 100_000)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.heap",
      [
        test "sorted pops" heap_sorted;
        test "fifo ties" heap_fifo_ties;
        qtest heap_qcheck;
        test "popped value released" heap_releases_popped;
        test "float values" heap_floats;
      ] );
    ( "sim.engine",
      [
        test "time ordering" engine_ordering;
        test "run until" engine_until;
        test "same-time fifo" engine_same_time_fifo;
        test "past clamped" engine_past_clamped;
        qtest engine_order_model;
        test "finished events released" engine_releases_finished;
        test "zero words per event" engine_zero_alloc;
      ] );
    ( "sim.proc",
      [
        test "sleep" proc_sleep;
        test "cancellation" proc_cancellation;
        test "cancel before start" proc_cancel_before_start;
      ] );
    ( "sim.ivar",
      [
        test "basic" ivar_basic;
        test "multiple readers" ivar_multiple_readers;
        test "double fill" ivar_double_fill;
        test "on_fill" ivar_on_fill;
      ] );
    ("sim.mailbox", [ test "fifo" mailbox_fifo ]);
    ( "sim.cpu",
      [
        test "G/G/k parallelism" cpu_parallelism;
        test "queue delay" cpu_queue_delay;
        test "busy accounting" cpu_busy_accounting;
      ] );
    ( "sim.rng",
      [
        test "deterministic" rng_deterministic;
        test "split independent" rng_split_independent;
        qtest rng_bounds;
        qtest rng_float_unit;
      ] );
    ( "sim.stats",
      [
        test "percentiles" hist_percentiles;
        test "empty" hist_empty;
        test "merge" hist_merge;
        qtest hist_accuracy;
        test "series binning" series_binning;
        test "series growth" series_growth;
      ] );
  ]

open Farm_sim
open Farm_core
open Farm_workloads
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)

(* Run random register transactions (reads + read-modify-writes) from every
   machine, recording each committed transaction's version footprint, and
   check the history with the precedence-graph serializability checker. *)
let random_history ?(machines = 6) ?(seed = 77) ?(cells = 16) ?(duration = Time.ms 40)
    ?kill () =
  let c = mk_cluster ~machines ~seed () in
  let r = Cluster.alloc_region_exn c in
  let addrs = alloc_cells c ~region:r.Wire.rid ~n:cells ~init:0 in
  let hist = History.create () in
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      let skip = match kill with Some v -> st.State.id = v | None -> false in
      if not skip then
        for _w = 0 to 2 do
          Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
              let rng = Rng.split st.State.rng in
              while not !stop do
                let a = Rng.int rng cells and b = Rng.int rng cells in
                let ro = Rng.int rng 100 < 30 in
                (match
                   Api.run st ~thread:0 (fun tx ->
                       let va = read_int tx addrs.(a) in
                       let vb = read_int tx addrs.(b) in
                       if not ro then begin
                         write_int tx addrs.(a) (va + 1);
                         if a <> b then write_int tx addrs.(b) (vb + va)
                       end;
                       History.footprint tx)
                 with
                | Ok (reads, writes) -> ignore (History.add hist ~reads ~writes)
                | Error _ -> ());
                Proc.sleep (Time.us (50 + Rng.int rng 200))
              done)
        done)
    c.Cluster.machines;
  (match kill with
  | Some victim ->
      Engine.schedule c.Cluster.engine
        ~at:(Time.add (Cluster.now c) (Time.ms 10))
        (fun () -> Cluster.kill c victim)
  | None -> ());
  Cluster.run_for c ~d:duration;
  stop := true;
  Cluster.run_for c ~d:(Time.ms 100);
  hist

let serializable_normal () =
  let hist = random_history () in
  check_bool "recorded a meaningful history" true (History.size hist > 300);
  match History.check hist with
  | History.Serializable -> ()
  | v -> Alcotest.failf "history not serializable: %a" History.pp_verdict v

let serializable_across_failure () =
  (* kill the region's primary mid-history: recovery must not create
     duplicate versions or precedence cycles *)
  List.iter
    (fun seed ->
      let hist = random_history ~seed ~kill:1 ~duration:(Time.ms 60) () in
      check_bool "history nonempty" true (History.size hist > 100);
      match History.check hist with
      | History.Serializable -> ()
      | v ->
          Alcotest.failf "seed %d: history not serializable after failure: %a" seed
            History.pp_verdict v)
    [ 5; 23; 91 ]

(* The checker itself must reject bad histories (built by hand with
   [History.add] — each footprint entry is [(object, version observed)]; a
   write installs [observed + 1]). *)
let checker_detects_lost_update () =
  let hist = History.create () in
  let a = Addr.make ~region:1 ~offset:0 in
  (* two transactions both read version 3 and both "commit" version 4 *)
  ignore (History.add hist ~reads:[ (a, 3) ] ~writes:[ (a, 3) ]);
  ignore (History.add hist ~reads:[ (a, 3) ] ~writes:[ (a, 3) ]);
  (match History.check hist with
  | History.Duplicate_write _ -> ()
  | v -> Alcotest.failf "lost update not detected: %a" History.pp_verdict v)

let checker_detects_write_skew () =
  let hist = History.create () in
  let a = Addr.make ~region:1 ~offset:0 and b = Addr.make ~region:1 ~offset:64 in
  (* T0 reads a@0 and writes b@0->1; T1 reads b@0 and writes a@0->1:
     each must precede the other — a classic write-skew cycle *)
  ignore (History.add hist ~reads:[ (a, 0) ] ~writes:[ (b, 0) ]);
  ignore (History.add hist ~reads:[ (b, 0) ] ~writes:[ (a, 0) ]);
  (match History.check hist with
  | History.Cycle _ -> ()
  | v -> Alcotest.failf "cycle not detected: %a" History.pp_verdict v)

let checker_detects_duplicate_install () =
  let hist = History.create () in
  let a = Addr.make ~region:2 ~offset:128 in
  (* a serial prefix, then a double install of version 2 with no read
     overlap (e.g. a replica applying a recovered commit twice) *)
  ignore (History.add hist ~reads:[] ~writes:[ (a, 0) ]);
  ignore (History.add hist ~reads:[] ~writes:[ (a, 1) ]);
  ignore (History.add hist ~reads:[] ~writes:[ (a, 1) ]);
  (match History.check hist with
  | History.Duplicate_write (addr, 2) when Addr.equal addr a -> ()
  | v -> Alcotest.failf "duplicate install not detected: %a" History.pp_verdict v)

let checker_accepts_handmade_serial () =
  let hist = History.create () in
  let a = Addr.make ~region:1 ~offset:0 and b = Addr.make ~region:1 ~offset:64 in
  (* a read-modify-write chain interleaved across two objects *)
  ignore (History.add hist ~reads:[ (a, 0) ] ~writes:[ (a, 0) ]);
  ignore (History.add hist ~reads:[ (a, 1); (b, 0) ] ~writes:[ (b, 0) ]);
  ignore (History.add hist ~reads:[ (a, 1); (b, 1) ] ~writes:[ (a, 1); (b, 1) ]);
  match History.check hist with
  | History.Serializable -> ()
  | v -> Alcotest.failf "valid history rejected: %a" History.pp_verdict v

let checker_accepts_serial () =
  let hist = random_history ~machines:3 ~duration:(Time.ms 10) () in
  check_bool "sanity" true (History.check hist = History.Serializable)

let suites =
  [
    ( "serializability",
      [
        test "checker detects lost update" checker_detects_lost_update;
        test "checker detects write-skew cycle" checker_detects_write_skew;
        test "checker detects duplicate version install" checker_detects_duplicate_install;
        test "checker accepts hand-made serial history" checker_accepts_handmade_serial;
        test "checker accepts real histories" checker_accepts_serial;
        test "random history serializable" serializable_normal;
        test "serializable across failures (3 seeds)" serializable_across_failure;
      ] );
  ]

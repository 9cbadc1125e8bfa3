open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Full-cluster power failure under load (§5): every committed transaction
   survives the restart, in-flight transactions resolve atomically via the
   standard vote/decide rules, and the cluster is fully live afterwards. *)
let power_cycle_under_load () =
  let c = mk_cluster ~machines:6 ~seed:21 () in
  let r = Cluster.alloc_region_exn c in
  let n = 16 in
  let cells = alloc_cells c ~region:r.Wire.rid ~n ~init:100 in
  (* transfer load so the power failure catches transactions mid-commit *)
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      for _ = 0 to 2 do
        Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
            let rng = Rng.split st.State.rng in
            while not !stop do
              let a = Rng.int rng n in
              let b = (a + 1 + Rng.int rng (n - 1)) mod n in
              (match
                 Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                     let va = read_int tx cells.(a) in
                     let vb = read_int tx cells.(b) in
                     write_int tx cells.(a) (va - 3);
                     write_int tx cells.(b) (vb + 3))
               with
              | Ok () | Error _ -> ());
              Proc.sleep (Time.us 120)
            done)
      done)
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 25);
  stop := true;
  (* pull the plug on the whole cluster, mid-flight *)
  Cluster.power_cycle c;
  Cluster.run_for c ~d:(Time.ms 120);
  (* the new configuration is in force everywhere *)
  Array.iter
    (fun (st : State.t) ->
      check_bool "machine alive after restart" true st.State.alive;
      check_int "boot configuration" 2 st.State.config.Config.id)
    c.Cluster.machines;
  (* conservation: committed transfers survived; in-flight ones resolved
     atomically *)
  check_int "money conserved across power failure" (n * 100)
    (sum_cells c ~machine:1 cells);
  (* liveness: new transactions commit on the rebooted cluster *)
  Cluster.run_on c ~machine:2 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            Array.iter (fun a -> write_int tx a 5) cells)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "not live after restart: %a" Txn.pp_abort e);
  check_int "fresh writes applied" (n * 5) (sum_cells c ~machine:3 cells);
  (* and new regions can still be allocated *)
  check_bool "region allocation works after restart" true
    (Cluster.alloc_region c <> None)

(* A committed value written right before the power failure must be
   readable afterwards — even when truncation had not yet propagated it to
   the backups (recovery replays it from the logs). *)
let committed_right_before_failure () =
  let c = mk_cluster ~machines:5 ~seed:9 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  Cluster.run_on c ~machine:1 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> write_int tx cell 424242) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  (* no settling time: kill immediately, before lazy truncation *)
  Cluster.power_cycle c;
  Cluster.run_for c ~d:(Time.ms 120);
  check_int "reported-committed write survives" 424242 (read_cell c ~machine:2 cell)

(* Restarting a single machine (not the whole cluster) brings it back as a
   member able to serve again. *)
let single_machine_restart () =
  let c = mk_cluster ~machines:5 ~seed:4 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1).(0) in
  Cluster.run_for c ~d:(Time.ms 5);
  let victim = surviving_machine c ~not_in:[ 0 ] in
  Cluster.kill c victim;
  Cluster.run_for c ~d:(Time.ms 120);
  (* the cluster reconfigured without it *)
  check_bool "evicted" false
    (Config.is_member (Cluster.machine c 0).State.config victim);
  (* reboot it with the current configuration: it does not rejoin (the
     paper never re-admits machines mid-run) but must not disturb anyone *)
  let cfg = (Cluster.machine c 0).State.config in
  ignore (Cluster.restart_machine c victim ~config:cfg);
  Cluster.run_for c ~d:(Time.ms 60);
  check_int "data still correct" 1 (read_cell c ~machine:0 cell);
  check_int "no spurious reconfiguration" cfg.Config.id
    (Cluster.machine c 0).State.config.Config.id

(* A restarted machine keeps its sender-side logs — the very ring logs
   stored at each receiver — and replaces its predecessor in the shared
   directory, so a one-sided read at it reaches the new incarnation. *)
let restart_keeps_logs_and_directory () =
  let c = mk_cluster ~machines:5 ~seed:4 () in
  Cluster.run_for c ~d:(Time.ms 5);
  let victim = 3 in
  let old = Cluster.machine c victim in
  let n = Cluster.n_machines c in
  let logs_before = Array.init n (fun dst -> State.log_to old dst) in
  Cluster.kill c victim;
  Cluster.run_for c ~d:(Time.ms 120);
  let st = Cluster.restart_machine c victim ~config:(Cluster.machine c 0).State.config in
  for dst = 0 to n - 1 do
    let log = State.log_to st dst in
    check_bool (Printf.sprintf "same log to %d" dst) true (log == logs_before.(dst));
    check_int "sender" victim (Ringlog.sender log);
    check_int "receiver" dst (Ringlog.receiver log);
    check_bool "stored at the receiver" true
      (Hashtbl.find (Cluster.machine c dst).State.nv.State.logs_in victim == log)
  done;
  check_bool "unknown destination rejected" true
    (match State.log_to st n with _ -> false | exception Invalid_argument _ -> true);
  let reader = Cluster.machine c 0 in
  check_bool "directory slot overwritten" true
    (match State.peer reader victim with Some p -> p == st | None -> false);
  check_bool "unknown peer" true (State.peer reader n = None);
  let seen =
    Cluster.run_on c ~machine:0 (fun rd ->
        Farm_net.Fabric.one_sided_read rd.State.fabric ~src:0 ~dst:victim ~bytes:64
          (fun () -> State.peer rd victim))
  in
  check_bool "remote read reaches the new state" true
    (match seen with Ok (Some p) -> p == st && p != old | _ -> false)

let suites =
  [
    ( "powerfail",
      [
        test "power cycle under load" power_cycle_under_load;
        test "committed right before failure" committed_right_before_failure;
        test "single machine restart" single_machine_restart;
        test "restart keeps logs and directory" restart_keeps_logs_and_directory;
      ] );
  ]

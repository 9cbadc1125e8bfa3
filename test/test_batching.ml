open Farm_sim
open Farm_net
open Farm_fault

(* Doorbell-batched one-sided verbs: CPU-cost accounting of the batch
   verbs (including the unbatched ablation's cost setting), equivalence of
   a single verb and a batch of one, per-op independence of faults and
   failures within a batch, and the batched commit pipeline under the
   fault-schedule fuzzer. *)

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type msg = Nothing

let mk_fabric ?(machines = 3) ?(params = Params.default) () =
  let e = Engine.create () in
  let rng = Rng.create 11 in
  let fab = Fabric.create e ~params ~rng in
  let cpus =
    Array.init machines (fun id ->
        let cpu = Cpu.create e ~threads:4 in
        Fabric.add_machine fab ~id ~cpu;
        cpu)
  in
  (e, fab, cpus)

(* Batches in the indexed-accessor form: op [i] targets [dsts.(i)]. *)
let write_batch ?on_complete fab dsts apply =
  Fabric.one_sided_write_batch_fn ?on_complete fab ~src:0 ~n:(Array.length dsts)
    ~dst:(Array.get dsts) ~bytes:(fun _ -> 64) ~apply

let read_batch fab dsts read =
  Fabric.one_sided_read_batch_fn fab ~src:0 ~n:(Array.length dsts) ~dst:(Array.get dsts)
    ~bytes:(fun _ -> 8) ~read

(* A batch of k writes costs issue + (k-1) doorbells + one poll; the same
   writes issued singly cost k * (issue + poll). The unbatched ablation is
   the cost setting doorbell = issue + poll, under which the batch of k
   costs exactly what the k singles do. *)
let batch_cpu_cost () =
  let dsts = [| 1; 2; 1; 2 |] in
  let batch_cpu params =
    let e, (fab : msg Fabric.t), cpus = mk_fabric ~params () in
    Proc.spawn e (fun () ->
        Array.iter
          (function Ok () -> () | Error _ -> Alcotest.fail "batch op failed")
          (write_batch fab dsts (fun _ -> ())));
    Engine.run e;
    Time.to_ns (Cpu.busy_total cpus.(0))
  in
  let p = Params.default in
  let issue_poll = Time.add p.Params.cpu_rdma_issue p.Params.cpu_rdma_poll in
  let expect =
    Time.add
      (Time.add p.Params.cpu_rdma_issue (Time.mul_int p.Params.cpu_rdma_doorbell 3))
      p.Params.cpu_rdma_poll
  in
  check_int "batch of 4: issue + 3 doorbells + 1 poll" (Time.to_ns expect) (batch_cpu p);
  check_int "ablation batch of 4: 4 x (issue + poll)"
    (Time.to_ns (Time.mul_int issue_poll 4))
    (batch_cpu { p with Params.cpu_rdma_doorbell = issue_poll });
  (* the same four writes as singles *)
  let e2, (fab2 : msg Fabric.t), cpus2 = mk_fabric () in
  Proc.spawn e2 (fun () ->
      Array.iter
        (fun dst ->
          match Fabric.one_sided_write fab2 ~src:0 ~dst ~bytes:64 (fun () -> ()) with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "single op failed")
        dsts);
  Engine.run e2;
  check_int "4 singles: 4 x (issue + poll)"
    (Time.to_ns (Time.mul_int issue_poll 4))
    (Time.to_ns (Cpu.busy_total cpus2.(0)))

(* The single verbs and the batch share one flight path: a batch of one
   completes at the same instant and charges the same CPU as the single
   verb, for reads and writes alike. *)
let single_matches_batch_of_one () =
  let run f =
    let e, (fab : msg Fabric.t), cpus = mk_fabric () in
    let done_at = ref Time.zero in
    Proc.spawn e (fun () ->
        if not (f fab) then Alcotest.fail "op failed";
        done_at := Proc.now ());
    Engine.run e;
    (Time.to_ns !done_at, Time.to_ns (Cpu.busy_total cpus.(0)))
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "read: same instant and CPU"
    (run (fun fab -> Result.is_ok (Fabric.one_sided_read fab ~src:0 ~dst:1 ~bytes:8 Fun.id)))
    (run (fun fab -> Result.is_ok (read_batch fab [| 1 |] (fun _ -> ())).(0)));
  Alcotest.check pair "write: same instant and CPU"
    (run (fun fab ->
         Result.is_ok (Fabric.one_sided_write fab ~src:0 ~dst:1 ~bytes:64 Fun.id)))
    (run (fun fab -> Result.is_ok (write_batch fab [| 1 |] (fun _ -> ())).(0)))

let empty_batch_is_free () =
  let e, (fab : msg Fabric.t), cpus = mk_fabric () in
  let len = ref (-1) in
  Proc.spawn e (fun () -> len := Array.length (read_batch fab [||] (fun _ -> ())));
  Engine.run e;
  check_int "no results" 0 !len;
  check_int "no CPU charged" 0 (Time.to_ns (Cpu.busy_total cpus.(0)))

(* Batched reads return results in operation order and linearize at the
   target, exactly like the single verb. *)
let batch_read_order () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  let a = ref 10 and b = ref 20 in
  let got = ref [||] in
  Proc.spawn e (fun () ->
      got := read_batch fab [| 1; 2; 1 |] (function 0 -> !a | 1 -> !b | _ -> !a + 1));
  Engine.run e;
  let v i = match !got.(i) with Ok v -> v | Error _ -> Alcotest.fail "read failed" in
  check_int "desc 0" 10 (v 0);
  check_int "desc 1" 20 (v 1);
  check_int "desc 2" 11 (v 2)

(* A link fault on one destination delays only that op's completion; the
   other ops in the batch complete at their usual instant. *)
let per_op_fault_independence () =
  let delay = Time.us 50 in
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_link_fault ~delay fab ~src:0 ~dst:2;
  let done_at = Array.make 3 Time.zero in
  let returned_at = ref Time.zero in
  Proc.spawn e (fun () ->
      let results =
        write_batch
          ~on_complete:(fun i _ -> done_at.(i) <- Engine.now e)
          fab [| 1; 2; 1 |] (fun _ -> ())
      in
      returned_at := Proc.now ();
      Array.iter
        (function Ok () -> () | Error _ -> Alcotest.fail "batch op failed")
        results);
  Engine.run e;
  check_bool "delayed op completes at least [delay] after the first op" true
    Time.(done_at.(1) >= Time.add done_at.(0) delay);
  check_bool "ops on healthy links are unaffected by the fault" true
    Time.(Time.max done_at.(0) done_at.(2) < Time.add done_at.(0) (Time.us 10));
  check_bool "batch returns only after the slowest op" true
    Time.(returned_at.contents >= done_at.(1))

(* A dead machine in the batch fails only its own op: the others apply and
   ack normally. *)
let per_op_failure_independence () =
  let e, (fab : msg Fabric.t), _ = mk_fabric () in
  Fabric.set_alive fab 2 false;
  let cell = ref 0 in
  let got = ref [||] in
  Proc.spawn e (fun () ->
      got := write_batch fab [| 1; 2 |] (function 0 -> cell := 7 | _ -> assert false));
  Engine.run e;
  check_bool "live op ok" true (match !got.(0) with Ok () -> true | Error _ -> false);
  check_bool "dead op fails" true
    (match !got.(1) with Ok () -> false | Error _ -> true);
  check_int "live op applied" 7 !cell

(* End-to-end: the batched commit pipeline passes a fault-schedule sweep —
   strict serializability, conservation, B-tree and state invariants, under
   crashes, partitions, lossy links and power failures. *)
let nemesis_sweep () =
  let opts =
    { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30 }
  in
  let report = Explorer.run ~opts ~base_seed:7 ~schedules:10 () in
  (match report.Explorer.failures with
  | [] -> ()
  | o :: _ ->
      Alcotest.failf "seed %d failed:@ %a" o.Explorer.seed Explorer.pp_outcome o);
  check_bool "committed transactions" true (report.Explorer.total_committed > 300)

let suites =
  [
    ( "batching",
      [
        test "batch CPU cost: issue + doorbells + one poll" batch_cpu_cost;
        test "single verb matches a batch of one" single_matches_batch_of_one;
        test "empty batch charges nothing" empty_batch_is_free;
        test "batched reads keep descriptor order" batch_read_order;
        test "link fault delays only its own op" per_op_fault_independence;
        test "dead target fails only its own op" per_op_failure_independence;
        test "nemesis sweep passes batched" nemesis_sweep;
      ] );
  ]

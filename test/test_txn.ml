open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Basic transaction semantics} *)

let read_own_writes () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:5).(0) in
  let v =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              write_int tx cell 9;
              read_int tx cell)
        with
        | Ok v -> v
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "reads own write" 9 v;
  check_int "committed value" 9 (read_cell c ~machine:2 cell)

let repeatable_reads () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1).(0) in
  let same =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = read_int tx cell in
              Proc.sleep (Time.us 100);
              let b = read_int tx cell in
              a = b)
        with
        | Ok v -> v
        | Error _ -> false)
  in
  check_bool "successive reads identical" true same

let conflicting_writers_abort () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  (* two coordinators increment concurrently without retry: at most one of
     any conflicting pair commits, and the final value equals the number of
     successful commits *)
  let commits = ref 0 in
  let done_ = ref 0 in
  for m = 1 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        (match
           Api.run st ~thread:0 (fun tx ->
               let v = read_int tx cell in
               Proc.sleep (Time.us 20);
               write_int tx cell (v + 1))
         with
        | Ok () -> incr commits
        | Error Txn.Conflict -> ()
        | Error e -> Fmt.failwith "unexpected: %a" Txn.pp_abort e);
        incr done_)
  done;
  Cluster.run_for c ~d:(Time.ms 50);
  check_int "all finished" 4 !done_;
  check_int "value = commits" !commits (read_cell c ~machine:0 cell);
  check_bool "at least one committed" true (!commits >= 1)

let validation_catches_stale_read () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:2 ~init:0 in
  (* T1 reads both cells with a pause; T2 writes cell 1 during the pause;
     T1 writes cell 0 only, so cell 1 is read-validated and must fail *)
  let t1 = ref None in
  let st1 = Cluster.machine c 1 and st2 = Cluster.machine c 2 in
  Proc.spawn ~ctx:st1.State.ctx c.Cluster.engine (fun () ->
      t1 :=
        Some
          (Api.run st1 ~thread:0 (fun tx ->
               let a = read_int tx cells.(0) in
               let b = read_int tx cells.(1) in
               Proc.sleep (Time.ms 2);
               write_int tx cells.(0) (a + b + 1))));
  Proc.spawn ~ctx:st2.State.ctx c.Cluster.engine (fun () ->
      Proc.sleep (Time.us 500);
      match Api.run_retry st2 ~thread:0 (fun tx -> write_int tx cells.(1) 42) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "t2 failed: %a" Txn.pp_abort e);
  Cluster.run_for c ~d:(Time.ms 50);
  check_bool "t1 aborted by validation" true (!t1 = Some (Error Txn.Conflict))

let read_only_multi_validates () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:2 ~init:50 in
  (* invariant: the two cells always sum to 100; a writer moves value
     between them while readers snapshot both *)
  let violations = ref 0 and reads = ref 0 in
  let stop = ref false in
  let writer = Cluster.machine c 1 in
  Proc.spawn ~ctx:writer.State.ctx c.Cluster.engine (fun () ->
      while not !stop do
        (match
           Api.run_retry writer ~thread:0 (fun tx ->
               let a = read_int tx cells.(0) in
               let b = read_int tx cells.(1) in
               write_int tx cells.(0) (a - 1);
               write_int tx cells.(1) (b + 1))
         with
        | Ok () -> ()
        | Error _ -> ());
        Proc.sleep (Time.us 50)
      done);
  for m = 2 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        while not !stop do
          (match
             Api.run st ~thread:0 (fun tx ->
                 let a = read_int tx cells.(0) in
                 let b = read_int tx cells.(1) in
                 (a, b))
           with
          | Ok (a, b) ->
              incr reads;
              if a + b <> 100 then incr violations
          | Error _ -> ());
          Proc.sleep (Time.us 30)
        done)
  done;
  Cluster.run_for c ~d:(Time.ms 40);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "collected reads" true (!reads > 100);
  check_int "no snapshot violations" 0 !violations

let lockfree_read_never_torn () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  (* a 16-byte object holding (v, -v): lock-free reads must never observe
     a half-written pair *)
  let addr =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:16 ~region:r.Wire.rid () in
              let b = Bytes.create 16 in
              Bytes.set_int64_le b 0 0L;
              Bytes.set_int64_le b 8 0L;
              Txn.write tx a b;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  let stop = ref false in
  let torn = ref 0 and reads = ref 0 in
  let wst = Cluster.machine c 1 in
  Proc.spawn ~ctx:wst.State.ctx c.Cluster.engine (fun () ->
      let v = ref 0 in
      while not !stop do
        incr v;
        let b = Bytes.create 16 in
        Bytes.set_int64_le b 0 (Int64.of_int !v);
        Bytes.set_int64_le b 8 (Int64.of_int (- !v));
        (match Api.run_retry wst ~thread:0 (fun tx -> Txn.write tx addr b) with
        | Ok () -> ()
        | Error _ -> ());
        Proc.sleep (Time.us 20)
      done);
  for m = 2 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        while not !stop do
          (match Api.read_lockfree st addr ~len:16 with
          | Some b ->
              incr reads;
              let x = Int64.to_int (Bytes.get_int64_le b 0) in
              let y = Int64.to_int (Bytes.get_int64_le b 8) in
              if x <> -y then incr torn
          | None -> ());
          Proc.sleep (Time.us 10)
        done)
  done;
  Cluster.run_for c ~d:(Time.ms 30);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "many reads" true (!reads > 200);
  check_int "no torn reads" 0 !torn

let alloc_free_lifecycle () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let addr =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 3;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "alive" 3 (read_cell c ~machine:2 addr);
  (* free it *)
  Cluster.run_on c ~machine:1 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> Txn.free tx addr) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "free: %a" Txn.pp_abort e);
  (* reading a freed object must fail *)
  let result =
    Cluster.run_on c ~machine:2 (fun st ->
        Api.run st ~thread:0 (fun tx -> read_int tx addr))
  in
  check_bool "freed object unreadable" true (result = Error Txn.Not_allocated)

let aborted_alloc_returns_slot () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let slot_addr = ref None in
  (* allocate then explicitly abort: the slot must be reusable *)
  let res =
    Cluster.run_on c ~machine:1 (fun st ->
        Api.run st ~thread:0 (fun tx ->
            let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
            slot_addr := Some a;
            Api.abort ()))
  in
  check_bool "explicit abort" true (res = Error Txn.Explicit);
  Cluster.run_for c ~d:(Time.ms 2);
  (* the same slot comes back on the next allocation (LIFO free list) *)
  let again =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 1;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_bool "slot reused" true (Some again = !slot_addr)

let backups_apply_at_truncation () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:7).(0) in
  (* run long enough for lazy truncation to flush *)
  Cluster.run_for c ~d:(Time.ms 20);
  let primary_mem = Option.get (replica_bytes c ~machine:r.Wire.primary r.Wire.rid) in
  List.iter
    (fun b ->
      let backup_mem = Option.get (replica_bytes c ~machine:b r.Wire.rid) in
      let off = cell.Addr.offset in
      check_bool
        (Printf.sprintf "backup %d byte-identical at object" b)
        true
        (Bytes.sub primary_mem off 16 = Bytes.sub backup_mem off 16))
    r.Wire.backups

let remote_alloc () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  (* allocate from a machine that is not the region's primary *)
  let m = surviving_machine c ~not_in:[ r.Wire.primary ] in
  let addr =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:32 ~region:r.Wire.rid () in
              Txn.write tx a (Bytes.make 32 'z');
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "in requested region" r.Wire.rid addr.Addr.region;
  check_bool "readable" true (read_cell c ~machine:0 addr <> 0)

let multi_region_transaction () =
  let c = mk_cluster () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let a = (alloc_cells c ~region:r1.Wire.rid ~n:1 ~init:10).(0) in
  let b = (alloc_cells c ~region:r2.Wire.rid ~n:1 ~init:20).(0) in
  Cluster.run_on c ~machine:3 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            let va = read_int tx a and vb = read_int tx b in
            write_int tx a (va + 5);
            write_int tx b (vb - 5))
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  check_int "region 1 updated" 15 (read_cell c ~machine:1 a);
  check_int "region 2 updated" 15 (read_cell c ~machine:2 b)

(* Serializability under contention: counter incremented by racing
   transactions from every machine; final value must equal commit count. *)
let counter_serializability () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  let commits = ref 0 in
  let per_machine = 30 in
  let finished = ref 0 in
  for m = 0 to 5 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        for _ = 1 to per_machine do
          match
            Api.run_retry ~attempts:200 st ~thread:0 (fun tx ->
                let v = read_int tx cell in
                write_int tx cell (v + 1))
          with
          | Ok () -> incr commits
          | Error e -> Fmt.failwith "increment failed: %a" Txn.pp_abort e
        done;
        incr finished)
  done;
  let guard = ref 0 in
  while !finished < 6 && !guard < 3000 do
    incr guard;
    Cluster.run_for c ~d:(Time.ms 5)
  done;
  check_int "all workers done" 6 !finished;
  check_int "every commit visible exactly once" (6 * per_machine) (read_cell c ~machine:0 cell);
  check_int "all committed" (6 * per_machine) !commits

(* Freeing an object allocated in the same transaction cancels both
   operations and returns the tentative slot to the (possibly remote)
   primary. *)
let alloc_free_same_tx () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let m = surviving_machine c ~not_in:[ r.Wire.primary ] in
  let committed_addr =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 1;
              Txn.free tx a;
              (* the transaction still commits (with no writes for a) *)
              let b = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx b 2;
              b)
        with
        | Ok b -> b
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "second alloc committed" 2 (read_cell c ~machine:0 committed_addr);
  Cluster.run_for c ~d:(Time.ms 5);
  (* the cancelled slot is available again at the primary *)
  let again =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 3;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "slot reusable" 3 (read_cell c ~machine:0 again)

(* {1 The footprint against a map model}

   Random read/write/alloc/free/re-read sequences run in one transaction
   and, step by step, through an [Addr.Map] model of the read and write
   sets. The arena-held footprint, the write items and every read result
   must match the model. Each case ends in [Api.abort], so committed state
   never moves and every case recycles the previous case's arena. *)

type op = Read of int | Write of int * int | Alloc of bool | Free of int

let show_op = function
  | Read i -> Printf.sprintf "R%d" i
  | Write (i, v) -> Printf.sprintf "W%d=%d" i v
  | Alloc r1 -> if r1 then "A1" else "A2"
  | Free i -> Printf.sprintf "F%d" i

let ops_arb =
  QCheck.(
    make
      ~print:(fun ops -> String.concat " " (List.map show_op ops))
      Gen.(
        list_size (int_range 1 30)
          (frequency
             [
               (4, map (fun i -> Read i) (int_bound 63));
               (3, map2 (fun i v -> Write (i, v)) (int_bound 63) (int_bound 1000));
               (1, map (fun r -> Alloc r) bool);
               (1, map (fun i -> Free i) (int_bound 63));
             ])))

(* Committed header version and data, peeked from the primary's memory. *)
let peek c (a : Addr.t) ~len =
  let st = Cluster.machine c 0 in
  let info = Option.get (State.region_info st a.Addr.region) in
  let rep = Option.get (State.replica (Cluster.machine c info.Wire.primary) a.Addr.region) in
  let h, data = Objmem.read_object rep ~off:a.Addr.offset ~len in
  (Obj_layout.version h, data)

let footprint_world () =
  let c = mk_cluster ~machines:3 () in
  let r1 = (Cluster.alloc_region_exn c).Wire.rid in
  let r2 = (Cluster.alloc_region_exn c).Wire.rid in
  let cells = alloc_cells c ~region:r1 ~n:6 ~init:7 in
  (c, r1, r2, Array.append cells (alloc_cells c ~region:r2 ~n:6 ~init:9))

(* Run [ops] in one transaction on machine 1 and in the model. *)
let run_footprint_case (c, r1, r2, cells) ops =
  let reads = ref Addr.Map.empty and writes = ref Addr.Map.empty in
  let pool = ref (Array.to_list cells) in
  let pick i = List.nth !pool (i mod List.length !pool) in
  let observed a =
    match Addr.Map.find_opt a !reads with Some (v, _) -> v | None -> fst (peek c a ~len:0)
  in
  let put a w = writes := Addr.Map.add a w !writes in
  let step tx = function
    | Read i ->
        let a = pick i in
        let got = Txn.read tx a ~len:8 in
        let want =
          match (Addr.Map.find_opt a !writes, Addr.Map.find_opt a !reads) with
          | Some (_, v, _), _ -> Bytes.sub v 0 (min 8 (Bytes.length v))
          | None, Some (_, v) -> v
          | None, None ->
              let vd = peek c a ~len:8 in
              reads := Addr.Map.add a vd !reads;
              snd vd
        in
        if not (Bytes.equal got want) then
          Fmt.failwith "R%d: read %S, model %S" i (Bytes.to_string got) (Bytes.to_string want)
    | Write (i, v) ->
        let a = pick i and b = Bytes.of_string (string_of_int v) in
        (match Addr.Map.find_opt a !writes with
        | Some (ver, _, op) -> put a (ver, b, op)
        | None -> put a (observed a, b, Wire.Alloc_none));
        Txn.write tx a b
    | Alloc in_r1 ->
        let a = Txn.alloc tx ~size:8 ~region:(if in_r1 then r1 else r2) () in
        put a (fst (peek c a ~len:0), Bytes.make 8 '\000', Wire.Alloc_set);
        pool := !pool @ [ a ]
    | Free i -> (
        let a = pick i in
        Txn.free tx a;
        match Addr.Map.find_opt a !writes with
        | Some (_, _, Wire.Alloc_set) ->
            (* cancelled: the slot is no longer this transaction's *)
            writes := Addr.Map.remove a !writes;
            pool := List.filter (fun b -> not (Addr.equal a b)) !pool
        | Some (ver, _, _) -> put a (ver, Bytes.empty, Wire.Alloc_clear)
        | None -> put a (observed a, Bytes.empty, Wire.Alloc_clear))
  in
  let verdict = ref (Error "aborted before the check") in
  let check tx =
    let desc m f = Addr.Map.fold (fun a x acc -> (a, f x) :: acc) m [] in
    let items =
      List.map
        (fun (w : Wire.write_item) ->
          (w.Wire.addr, (w.Wire.version, w.Wire.value, w.Wire.alloc_op)))
        (Arena.Vec.to_list tx.Txn.ar.Arena.writes)
    in
    if Farm_workloads.History.footprint tx
       <> (desc !reads fst, desc !writes (fun (v, _, _) -> v))
    then Error "footprint differs from the model"
    else if items <> Addr.Map.bindings !writes then Error "write items differ from the model"
    else Ok ()
  in
  (match
     Cluster.run_on c ~machine:1 (fun st ->
         Api.run st ~thread:0 (fun tx ->
             (try
                List.iter (step tx) ops;
                verdict := check tx
              with Failure m -> verdict := Error m);
             Api.abort ()))
   with
  | Error Txn.Explicit -> ()
  | Error e -> verdict := Error (Fmt.str "aborted: %a" Txn.pp_abort e)
  | Ok () -> ());
  !verdict

let footprint_matches_model =
  let world = lazy (footprint_world ()) in
  QCheck.Test.make ~name:"footprint and reads match an Addr.Map model" ~count:200 ops_arb
    (fun ops ->
      match run_footprint_case (Lazy.force world) ops with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* Twelve objects touched in descending address order: every insertion is
   a head insert, and the vectors grow past their first capacity of 8. *)
let footprint_descending () =
  let ((_, _, _, cells) as world) = footprint_world () in
  let desc = List.init (Array.length cells) (fun i -> Array.length cells - 1 - i) in
  let sorted = List.sort Addr.compare (Array.to_list cells) in
  check_bool "cells ascend" true (sorted = Array.to_list cells);
  let ops =
    List.map (fun i -> Read i) desc
    @ List.map (fun i -> Write (i, i)) desc
    @ List.map (fun i -> if i mod 3 = 0 then Free i else Read i) desc
  in
  match run_footprint_case world ops with Ok () -> () | Error m -> Alcotest.fail m

let suites =
  [
    ( "txn.semantics",
      [
        test "read own writes" read_own_writes;
        test "repeatable reads" repeatable_reads;
        test "conflicting writers" conflicting_writers_abort;
        test "validation catches stale read" validation_catches_stale_read;
        test "read-only snapshot" read_only_multi_validates;
        test "lock-free reads never torn" lockfree_read_never_torn;
        test "multi-region" multi_region_transaction;
        test "counter serializability" counter_serializability;
      ] );
    ( "txn.alloc",
      [
        test "alloc/free lifecycle" alloc_free_lifecycle;
        test "aborted alloc returns slot" aborted_alloc_returns_slot;
        test "remote alloc" remote_alloc;
        test "alloc+free in one tx" alloc_free_same_tx;
      ] );
    ("txn.replication", [ test "backups apply at truncation" backups_apply_at_truncation ]);
    ( "txn.footprint",
      [
        QCheck_alcotest.to_alcotest footprint_matches_model;
        test "descending inserts past the first capacity" footprint_descending;
      ] );
  ]

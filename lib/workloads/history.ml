open Farm_core

(* A strict-serializability checker for recorded transaction histories.

   FaRM's object versions give an exact serialization witness: a committed
   write of object [o] that observed version [v] installs [v+1], so per
   object the writers are totally ordered by version, a read of [o] at
   version [v] must come after the writer that installed [v] and before the
   writer that installs [v+1], and no two committed transactions may
   install the same version of the same object.

   The checker builds that precedence graph over committed transactions and
   verifies (a) unique writers per (object, version) and (b) acyclicity —
   together equivalent to the history having a serial order consistent
   with what every transaction observed. Aborted transactions must leave no
   trace, which the version-uniqueness check also enforces (a "committed"
   version written by an aborted transaction would collide with the next
   writer's). *)

type event = {
  tx : int;  (* dense id assigned by the recorder *)
  reads : (Addr.t * int) list;  (* object, version observed *)
  writes : (Addr.t * int) list;  (* object, version observed (installs +1) *)
}

type t = { mutable events : event list; mutable next : int }

let create () = { events = []; next = 0 }

(* Record one committed transaction from its footprint (see [footprint]);
   tests also build known-bad histories with it directly. *)
let add t ~reads ~writes =
  let id = t.next in
  t.next <- id + 1;
  t.events <- { tx = id; reads; writes } :: t.events;
  id

(* A transaction's footprint so far, as [(object, version observed)]
   lists in descending address order. Read at the end of the transaction
   body: commit changes no versions, and the arena holding the footprint
   is recycled once the transaction settles. *)
let footprint (tx : Txn.t) =
  let ar = tx.Txn.ar in
  let reads =
    List.init (Arena.Vec.length ar.Arena.rs_addr) (fun i ->
        (Arena.Vec.get ar.Arena.rs_addr i, Arena.Vec.get ar.Arena.rs_ver i))
  in
  ( List.rev reads,
    Arena.Vec.fold (fun acc (w : Wire.write_item) -> (w.Wire.addr, w.Wire.version) :: acc) []
      ar.Arena.writes )

type verdict = Serializable | Duplicate_write of Addr.t * int | Cycle of int list

(* Edges: for each object o,
     writer(o, v) -> writer(o, v+1)          (version order)
     writer(o, v) -> reader(o, v)            (read sees the install)
     reader(o, v) -> writer(o, v+1)          (read precedes overwrite)
   A write that observed v is both reader-of-v and writer-of-v+1. *)
let check t : verdict =
  let events = Array.of_list (List.rev t.events) in
  let n = Array.length events in
  let writer : (Addr.t * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let dup = ref None in
  Array.iter
    (fun e ->
      List.iter
        (fun (a, v) ->
          let key = (a, v + 1) in
          if Hashtbl.mem writer key then dup := Some (a, v + 1)
          else Hashtbl.replace writer key e.tx)
        e.writes)
    events;
  match !dup with
  | Some (a, v) -> Duplicate_write (a, v)
  | None ->
      let succs = Array.make n [] in
      let add_edge a b = if a <> b then succs.(a) <- b :: succs.(a) in
      Array.iter
        (fun e ->
          let observe (a, v) =
            (* after the writer that installed v (if recorded) *)
            (match Hashtbl.find_opt writer (a, v) with
            | Some w -> add_edge w e.tx
            | None -> () (* initial state *));
            (* before the writer that installs v+1 *)
            match Hashtbl.find_opt writer (a, v + 1) with
            | Some w -> add_edge e.tx w
            | None -> ()
          in
          List.iter observe e.reads;
          List.iter observe e.writes)
        events;
      (* Cycle detection by recursive DFS. A long version chain recurses
         once per transaction, which is fine: OCaml 5 grows the stack on
         demand, and a 4,000,000-transaction chain checks without
         [Stack_overflow]. *)
      let color = Array.make n 0 in
      let parent = Array.make n (-1) in
      let cycle = ref None in
      let rec dfs u =
        color.(u) <- 1;
        List.iter
          (fun v ->
            if !cycle = None then
              if color.(v) = 0 then begin
                parent.(v) <- u;
                dfs v
              end
              else if color.(v) = 1 then begin
                (* reconstruct u -> ... -> v *)
                let rec back acc x = if x = v || x = -1 then v :: acc else back (x :: acc) parent.(x) in
                cycle := Some (back [] u)
              end)
          succs.(u);
        color.(u) <- 2
      in
      let i = ref 0 in
      while !cycle = None && !i < n do
        if color.(!i) = 0 then dfs !i;
        incr i
      done;
      (match !cycle with Some c -> Cycle c | None -> Serializable)

let pp_verdict ppf = function
  | Serializable -> Fmt.string ppf "serializable"
  | Duplicate_write (a, v) -> Fmt.pf ppf "duplicate write of %a version %d" Addr.pp a v
  | Cycle txs -> Fmt.pf ppf "precedence cycle through transactions %a" Fmt.(list ~sep:(any "->") int) txs

let size t = t.next

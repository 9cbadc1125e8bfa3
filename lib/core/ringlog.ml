open Farm_sim

(* Sender-owned ring-buffer transaction logs (§3).

   Each sender-receiver machine pair has one log, physically located in the
   receiver's non-volatile DRAM. The sender appends records with one-sided
   RDMA writes acknowledged by the receiver's NIC alone; the receiver's CPU
   later processes records, and truncation lazily frees space and lazily
   propagates the new head back to the sender.

   Space is accounted in bytes against [capacity]. Records are kept as
   typed values (plus their wire size) rather than serialized bytes; see
   DESIGN.md. Entries move through three states:
     reserved (sender)  ->  unprocessed (DMA'd)  ->  resident
   and leave the ring only at truncation (or, for markers and aborted
   transactions, when discarded after processing).

   Record processing is not serialized per log: the commit protocol itself
   orders the records that must be ordered (a COMMIT-PRIMARY is only
   written after the LOCK reply, so a transaction's LOCK is always fully
   processed before its later records arrive). The one cross-record hazard
   — a truncation overtaking the processing of the records it truncates —
   is handled by the receiver deferring truncations while the transaction
   still has unprocessed entries (see [pending_tx]). *)

type entry = { size : int; record : Wire.log_record }

type t = {
  sender : int;
  receiver : int;
  capacity : int;
  pending_tx : int Txid.Tbl.t;  (* txid -> unprocessed record count *)
  resident : entry list Txid.Tbl.t;  (* processed, awaiting truncation *)
  mutable used : int;  (* receiver-side truth: unprocessed + resident bytes *)
  mutable on_append : t -> entry -> unit;  (* receiver processing trigger *)
  (* sender-side state *)
  mutable reserved : int;
  mutable used_estimate : int;  (* sender's lazily-updated view of [used] *)
}

let create ~sender ~receiver ~capacity =
  {
    sender;
    receiver;
    capacity;
    pending_tx = Txid.Tbl.create 64;
    resident = Txid.Tbl.create 64;
    used = 0;
    on_append = (fun _ _ -> ());
    reserved = 0;
    used_estimate = 0;
  }

let set_on_append t fn = t.on_append <- fn
let sender t = t.sender
let receiver t = t.receiver
let used t = t.used
let capacity t = t.capacity

let txid_of_record (r : Wire.log_record) =
  match r.payload with
  | Lock p | Commit_backup p -> Some p.txid
  | Commit_primary { txid; _ } -> Some txid
  | Abort txid -> Some txid
  | Truncate_marker -> None

(* {1 Sender side} *)

let free_estimate t = t.capacity - t.used_estimate - t.reserved

let reserve t n =
  if free_estimate t >= n then begin
    t.reserved <- t.reserved + n;
    true
  end
  else false

let unreserve t n =
  t.reserved <- t.reserved - n;
  if t.reserved < 0 then t.reserved <- 0

(* After a sender restarts, its reservations died with it and its head
   estimate is stale: resynchronize against the receiver-side truth. *)
let reset_sender_view t =
  t.reserved <- 0;
  t.used_estimate <- t.used

(* Called by the sender when it issues a reservation-backed write: the
   write will consume the space, so the estimate grows and the reservation
   shrinks. *)
let consume_reservation t n =
  unreserve t n;
  t.used_estimate <- t.used_estimate + n

(* {1 DMA (runs at the receiver-NIC write instant)} *)

(* The NIC accepts the write regardless of configuration; the sender
   reserved the space, so the ring never overflows. *)
let dma_append t record ~size =
  let e = { size; record } in
  t.used <- t.used + size;
  (match txid_of_record record with
  | Some txid ->
      let n = match Txid.Tbl.find_opt t.pending_tx txid with Some n -> n | None -> 0 in
      Txid.Tbl.replace t.pending_tx txid (n + 1)
  | None -> ());
  t.on_append t e

(* {1 Receiver side} *)

let pending_count t txid =
  match Txid.Tbl.find_opt t.pending_tx txid with Some n -> n | None -> 0

(* Mark an entry as no longer unprocessed (it was either retained or
   discarded by its processor). *)
let processed t (e : entry) =
  match txid_of_record e.record with
  | Some txid ->
      let n = pending_count t txid in
      if n <= 1 then Txid.Tbl.remove t.pending_tx txid
      else Txid.Tbl.replace t.pending_tx txid (n - 1)
  | None -> ()

(* After the receiver CPU processes an entry it stays resident so that
   recovery can re-examine it until the coordinator truncates the
   transaction. *)
let retain t (e : entry) =
  processed t e;
  match txid_of_record e.record with
  | Some txid ->
      let existing = match Txid.Tbl.find_opt t.resident txid with Some l -> l | None -> [] in
      Txid.Tbl.replace t.resident txid (e :: existing)
  | None -> ()

let lazy_head_update = Time.us 50

let release_space t engine freed =
  t.used <- t.used - freed;
  Engine.schedule_in engine ~after:lazy_head_update (fun () ->
      t.used_estimate <- t.used_estimate - freed;
      if t.used_estimate < 0 then t.used_estimate <- 0)

(* Drop a processed entry without retaining it (markers, aborted
   transactions). *)
let discard t engine (e : entry) =
  processed t e;
  release_space t engine e.size

let resident_records t txid =
  match Txid.Tbl.find_opt t.resident txid with
  | Some l -> List.map (fun e -> e.record) l
  | None -> []

let iter_resident t fn =
  Txid.Tbl.iter (fun txid entries -> fn txid (List.map (fun e -> e.record) entries)) t.resident

(* Truncate a transaction: drop its resident records and free their space.
   The sender's head estimate is updated lazily. *)
let truncate t engine txid =
  match Txid.Tbl.find_opt t.resident txid with
  | None -> 0
  | Some entries ->
      Txid.Tbl.remove t.resident txid;
      let freed = List.fold_left (fun acc e -> acc + e.size) 0 entries in
      release_space t engine freed;
      List.length entries

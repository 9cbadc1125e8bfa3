(* Two-part event queue (see engine.mli): a FIFO lane for events due at
   [now] and a heap keyed by [(instant, seq)] for later ones. Invariant
   that keeps [(instant, scheduling order)] order: every heap entry keyed
   at [now] was pushed before the clock reached [now], so it precedes every
   lane entry, and the lane is empty whenever the clock advances. *)

type t = {
  heap : (unit -> unit) Heap.t;
  mutable lane : (unit -> unit) array;  (** ring buffer, power-of-two size *)
  mutable lane_head : int;
  mutable lane_len : int;
  mutable now : Time.t;
  mutable seq : int;
  mutable stopped : bool;
  mutable events_processed : int;
  mutable tracer : (at:Time.t -> string -> unit) option;
}

(* fills vacated heap and lane slots, so finished events are garbage *)
let nop () = ()

let create () =
  {
    heap = Heap.create ~dummy:nop ();
    lane = Array.make 64 nop;
    lane_head = 0;
    lane_len = 0;
    now = Time.zero;
    seq = 0;
    stopped = false;
    events_processed = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let emitf t fmt =
  match t.tracer with
  | Some f -> Format.kasprintf (fun msg -> f ~at:t.now msg) fmt
  | None -> Format.ikfprintf ignore Format.err_formatter fmt

let now t = t.now

let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (2 * cap) nop in
  for i = 0 to t.lane_len - 1 do
    lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
  done;
  t.lane <- lane;
  t.lane_head <- 0

let lane_push t fn =
  if t.lane_len = Array.length t.lane then grow_lane t;
  t.lane.((t.lane_head + t.lane_len) land (Array.length t.lane - 1)) <- fn;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let fn = t.lane.(t.lane_head) in
  t.lane.(t.lane_head) <- nop;
  t.lane_head <- (t.lane_head + 1) land (Array.length t.lane - 1);
  t.lane_len <- t.lane_len - 1;
  fn

let heap_push t ~at fn =
  t.seq <- t.seq + 1;
  Heap.push t.heap ~key:at ~seq:t.seq fn

let schedule t ~at fn = if at <= t.now then lane_push t fn else heap_push t ~at fn

let schedule_in t ~after fn = schedule t ~at:(Time.add t.now after) fn

let stop t = t.stopped <- true

let events_processed t = t.events_processed

let pending t = Heap.length t.heap + t.lane_len

let dispatch t fn =
  t.events_processed <- t.events_processed + 1;
  fn ()

let run ?until t =
  t.stopped <- false;
  let limit = match until with Some l -> l | None -> max_int in
  if limit < t.now then begin
    (* A limit in the past leaves every event queued and sets the clock
       back to it. The lane's events still belong to the old instant, so
       they move to the heap, in order, behind every earlier entry. *)
    if pending t > 0 then begin
      let at = t.now in
      while t.lane_len > 0 do
        heap_push t ~at (lane_pop t)
      done;
      t.now <- limit
    end
  end
  else begin
    let heap = t.heap in
    let continue = ref true in
    while !continue && not t.stopped do
      if Heap.length heap > 0 && Heap.min_key heap = t.now then dispatch t (Heap.pop_min heap)
      else if t.lane_len > 0 then dispatch t (lane_pop t)
      else if Heap.length heap = 0 then continue := false
      else begin
        let at = Heap.min_key heap in
        if at > limit then begin
          t.now <- limit;
          continue := false
        end
        else begin
          t.now <- at;
          dispatch t (Heap.pop_min heap)
        end
      end
    done;
    if Option.is_some until && t.now < limit && not t.stopped then t.now <- limit
  end

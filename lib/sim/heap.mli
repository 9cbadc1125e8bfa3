(** Binary min-heap keyed by [(key, seq)].

    The secondary [seq] key gives FIFO order among entries with equal primary
    keys, which the event queue relies on for deterministic scheduling of
    simultaneous events. {!Engine} keeps only future events here: events due
    at the current instant bypass the heap through the engine's FIFO lane,
    and every heap entry keyed at the current instant precedes them (see
    {!Engine} for why the split keeps [(instant, seq)] order).

    Entries are unboxed: keys and sequence numbers sit in two [int array]s
    beside an array of values. Once the arrays have grown to the high-water
    mark, {!push}, {!min_key} and {!pop_min} allocate nothing. A slot vacated
    by a pop is overwritten with a filler value, so a popped value is not
    kept reachable by the heap. *)

type 'a t

val create : ?dummy:'a -> unit -> 'a t
(** [dummy] is the filler for vacated slots. Without it, the first value
    ever pushed becomes the filler and stays reachable for the life of the
    heap; pass [dummy] when values hold on to memory (closures, say). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit

val min_key : 'a t -> int
(** Smallest key in the heap. Raises [Invalid_argument] if it is empty. *)

val pop_min : 'a t -> 'a
(** Remove the entry with the smallest [(key, seq)] and return its value.
    Raises [Invalid_argument] if the heap is empty. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest [(key, seq)]. *)

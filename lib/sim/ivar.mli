(** Write-once synchronization cells.

    The building block for completions: a reader blocks until some other
    process (or an engine event such as a NIC completion) fills the cell. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Wakes all readers. Raises [Invalid_argument] if already full. *)

val fill_if_empty : 'a t -> 'a -> unit

val read : 'a t -> 'a
(** Block the calling process until the cell is full. Must run inside a
    process. *)

val on_fill : 'a t -> ('a -> unit) -> unit
(** Run a callback when the cell is filled (immediately if already full).
    Unlike {!read} this does not require a process context. *)

val peek : 'a t -> 'a option

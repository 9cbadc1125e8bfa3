(** Transaction identifiers [<c, m, t, l>] (§5.3): the configuration in
    which the commit started, the coordinator machine, the coordinator
    thread, and a thread-local sequence number. The encoding makes every
    participant able to tell, from a log record alone, which configuration
    a transaction belongs to and who coordinated it — the basis for
    recovering-transaction identification and for sharding recovery work
    across threads. *)

type t = { config : int; machine : int; thread : int; local : int }

val make : config:int -> machine:int -> thread:int -> local:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Equal to [Hashtbl.hash (config, machine, thread, local)], computed
    without allocating. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t

open Farm_core

(** A strict-serializability checker over recorded transaction histories.

    Object versions are an exact serialization witness: per object, writers
    are totally ordered by the version they install, a read at version [v]
    sits between the writers of [v] and [v+1], and no two committed
    transactions may install the same version. The checker builds that
    precedence graph and reports a violation as either a duplicate write
    (lost-update/double-commit) or a cycle (non-serializable order). *)

type t

val create : unit -> t

val add : t -> reads:(Addr.t * int) list -> writes:(Addr.t * int) list -> int
(** Record a committed transaction from its footprint — each entry is
    [(object, version observed)]; a write installs [version + 1]. Returns
    the dense transaction id used in verdicts. *)

val footprint : Txn.t -> (Addr.t * int) list * (Addr.t * int) list
(** The transaction's [(reads, writes)] so far, in {!add}'s shape and in
    descending address order. Call it as the last step of the body passed
    to {!Api.run}, and {!add} the result once the run returns [Ok]: the
    transaction's arena is recycled as soon as it settles. *)

type verdict = Serializable | Duplicate_write of Addr.t * int | Cycle of int list

val check : t -> verdict
val pp_verdict : Format.formatter -> verdict -> unit

val size : t -> int
(** Number of recorded transactions. *)

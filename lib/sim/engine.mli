(** Discrete-event simulation engine.

    The engine owns the virtual clock and an event queue of callbacks.
    Events run in [(instant, scheduling order)] order: events scheduled at
    the same instant run in FIFO order, so a run is fully deterministic.
    Exceptions raised by an event callback propagate out of {!run}; the
    test-suite relies on this to surface protocol assertion failures.

    The queue has two parts. Events due at the current instant (a process
    resuming, say) go to a FIFO lane, a ring buffer that costs O(1) per
    event; later events go to a {!Heap} keyed by [(instant, seq)]. {!run}
    executes heap entries keyed at [now] first, then drains the lane, then
    advances the clock to the heap minimum. A heap entry keyed at [now] was
    scheduled while the clock was earlier, so it precedes every lane entry;
    nothing scheduled during the drain can land in the heap at [now]; and
    the lane is empty whenever the clock moves. The split therefore never
    changes the execution order. Neither part allocates per event once it
    has grown, and neither keeps a finished event reachable. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute instant. Instants in the past are
    clamped to [now]: the callback joins the same-instant lane. *)

val schedule_in : t -> after:Time.t -> (unit -> unit) -> unit
(** Schedule a callback after a relative delay. *)

val run : ?until:Time.t -> t -> unit
(** Process events in time order until the queue is empty, [stop] is called,
    or the clock would pass [until] (in which case the clock is set to
    [until] and remaining events stay queued for a later [run]). An
    [until] before [now] runs nothing and, if events are queued, sets the
    clock back to [until]. *)

val stop : t -> unit

val pending : t -> int
(** Number of queued events, heap and lane together. *)

val events_processed : t -> int
(** Total events executed since creation; a cheap progress/efficiency
    metric for benchmarks. *)

(** {1 Trace hooks}

    A tracer is an optional subscriber for timestamped diagnostic events.
    Any layer may {!emitf} a line (the network fabric reports injected
    packet drops, the fault harness reports every fault it applies); with
    no tracer installed, emission is free. The fuzzer uses the collected
    trace to print a per-run event log that is byte-identical across
    replays of the same seed. *)

val set_tracer : t -> (at:Time.t -> string -> unit) option -> unit
val emitf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Emit one formatted line. The line is rendered only when a tracer is
    installed; with none, the arguments are skipped unformatted. *)

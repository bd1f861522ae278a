(** Global probe-saturation tallies for multi-campaign pruning: workers
    report which probes fired per execution; a probe is pruned only when
    its vote tally reaches a global quorum, so a fuzzing farm converges
    to the same pruned instrumentation a long single campaign would.
    Every vote counts one. *)

type t

val create : unit -> t

(** Record one execution in which probe [pid] fired. *)
val record : t -> pid:int -> unit

(** Votes recorded for [pid] (0 when never seen). *)
val count : t -> int -> int

(** Probes whose tally reached [quorum], excluding those [already]
    acted upon; sorted ascending. Non-positive [quorum] never
    saturates. *)
val saturated : t -> quorum:int -> already:(int -> bool) -> int list

(** Fold [other]'s votes into [into]. *)
val merge : into:t -> t -> unit

(** Distinct probes with at least one vote. *)
val distinct : t -> int

(** Every (pid, tally), ascending by pid — checkpoint export. *)
val entries : t -> (int * int) list

(** Rebuild a tally from {!entries} output. *)
val restore : (int * int) list -> t

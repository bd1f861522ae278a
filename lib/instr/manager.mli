(** PatchManager: dynamic adding, deleting and changing of probes (paper
    Section 4). The manager tracks which probes changed since the last
    recompilation; Odin's scheduler reads that dirty set to bound the
    recompilation scope (Algorithm 2, lines 2-6).

    Dirty-state queries ({!changed_probes}, {!changed_targets}) and the
    by-target lookup ({!probes_on}) are O(changed) / O(probes on that
    symbol): the manager maintains persistent indexes instead of
    filtering the full probe list, so the incremental scheduler never
    pays O(program) to find what changed. *)

type t

val create : unit -> t

(** Register a new probe against [target]; starts dirty, and enabled
    unless [~enabled:false] (mutants register disarmed: the initial
    build must produce the pristine image). *)
val add : t -> ?enabled:bool -> target:string -> Probe.payload -> Probe.t

val get : t -> int -> Probe.t option

(** @raise Invalid_argument if no probe has this id. *)
val get_exn : t -> int -> Probe.t

(** Remove a probe. Its target symbol stays dirty so the next
    recompilation regenerates the symbol without the probe's code.
    Removing an already-removed probe is a no-op (the target stays
    dirty). *)
val remove : t -> Probe.t -> unit

(** Enable or disable a probe (marks it changed when the state flips). *)
val set_enabled : t -> Probe.t -> bool -> unit

(** Batch N probe toggles into one dirty-set update: the next rebuild
    drains the batch with a single [changed_targets] pass and a single
    schedule (K toggles visit O(K) fragments, not K separate passes). *)
val toggle_many : t -> (Probe.t * bool) list -> unit

(** Mark a probe's logic as modified (e.g. its payload was retargeted). *)
val touch : t -> Probe.t -> unit

val iter : (Probe.t -> unit) -> t -> unit

(** All live probes in registration order. *)
val to_list : t -> Probe.t list

val count : t -> int

(** Live probes registered against a symbol, probe ids ascending (the
    relative order {!to_list} would give). Served from the persistent
    by-target index — O(probes on that symbol). *)
val probes_on : t -> string -> Probe.t list

(** Probes changed since the last successful rebuild, ids ascending.
    O(changed), not O(probes). *)
val changed_probes : t -> Probe.t list

(** Symbols that must be recompiled: targets of changed probes plus
    targets of removed probes, sorted. *)
val changed_targets : t -> string list

val has_changes : t -> bool

(** Called by the engine after a successful rebuild. *)
val clear_changes : t -> unit

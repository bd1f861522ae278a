(** OdinCov: basic-block coverage on the Odin probe framework (the
    demonstration tool of paper Section 5). One probe per basic block; an
    enabled probe compiles to an inline 8-bit counter increment; pruning
    follows Untracer: a probe that has fired is removed and the affected
    fragments are recompiled without it. *)

(** Name of the runtime counter array symbol. *)
val counters_sym : string

type t = {
  session : Session.t;
  mutable total_probes : int;
  mutable pruned_total : int;
}

(** The patch logic (installed by {!setup}; exposed for custom drivers). *)
val patch : Session.sched -> unit

(** Counter slots a program needs: one per basic block. *)
val count_blocks : Ir.Modul.t -> int

(** The runtime-global spec to pass to {!Session.create}. *)
val runtime_global : Ir.Modul.t -> string * int

(** Register one probe per basic block of every defined function and
    install the patch logic. *)
val setup : Session.t -> t

(** Read probe [pid]'s 8-bit counter out of VM memory (zero-extended). *)
val read_counter : Vm.t -> int -> int

(** Accumulate counters into the probes' profiling state; returns the
    probes that fired for the first time. *)
val harvest : t -> Vm.t -> Instr.Probe.t list

(** Remove every probe that has fired (Untracer policy); returns how many
    were removed (a {!Session.refresh} is pending when > 0). *)
val prune_fired : t -> int

(** Per-probe cost attribution from a profiled VM run: maps the VM's
    inline-counter sites back to probe ids (counter address minus the
    [__odin_counters] base). Returns [(pid, hits, cycles)] ascending by
    pid; [total] bounds the counter region. Requires the VM to have run
    with {!Vm.enable_profile}; returns [[]] otherwise. *)
val probe_costs : total:int -> Vm.t -> (int * int * int) list

(** Blocks ever covered (pruned probes included). *)
val covered : t -> int

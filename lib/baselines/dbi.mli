(** Dynamic-binary-instrumentation baselines over the VM's block-entry
    hook on the *uninstrumented* binary:

    - DrCov (DynamoRIO): JIT translation (per-block, first execution) +
      code-cache dispatch + inline counter on every block entry; the
      translation cache persists across executions (fork-server model);
    - libInst (DynInst): a trampoline with full context save/restore plus
      the instrumentation snippet on every block entry. *)

type costs = {
  c_translate_per_inst : int;
  c_translate_fixed : int;
  c_dispatch : int;
  c_counter : int;
  c_trampoline : int;
}

val default_costs : costs

type kind = Drcov | Libinst

type t = {
  kind : kind;
  costs : costs;
  translated : (string * int, unit) Hashtbl.t;  (** DrCov code cache *)
}

val create : ?costs:costs -> kind -> t

(** Length (instructions) of one basic block of a compiled function. *)
val block_length : Codegen.Mach.mfunc -> int -> int

(** Install the engine's block hook on a (fresh) VM; the engine state
    persists across VMs. *)
val attach : t -> Vm.t -> unit

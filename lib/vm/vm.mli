(** Execution engine: runs linked machine code with per-instruction cycle
    accounting. Every "execution duration" in the reproduced figures is a
    cycle count from this VM, so results are deterministic and
    hardware-independent while preserving relative costs.

    A VM runs on the executable it was created with: a recompile and
    relink reaches the next VM, never a running one.

    The block-entry hook is how the dynamic-binary-instrumentation
    baselines (DrCov, libInst) charge translation/dispatch/trampoline
    costs without modifying the code. *)

exception Fault of string

(** One inline-counter site's attribution: executed increments at one
    data address and their cycle cost (see {!profile_inc_sites}). *)
type inc_site = {
  mutable is_hits : int;
  mutable is_cycles : int;
}

(** Optional execution profile: per-function cycle attribution plus
    block/probe/call hit counts. Pure observation — enabling it never
    changes [cycles], [steps] or results. *)
type profile = {
  mutable pr_block_hits : int;  (** basic-block entries *)
  mutable pr_probe_hits : int;  (** inline counter increments executed *)
  mutable pr_calls : int;  (** guest-to-guest calls dispatched *)
  mutable pr_host_calls : int;  (** host function calls *)
  pr_fn_cycles : (string, int ref) Hashtbl.t;
  pr_fn_blocks : (string, int ref) Hashtbl.t;
  pr_inc_sites : (int, inc_site) Hashtbl.t;
      (** per-counter-address attribution (address -> hits, cycles) *)
}

type t = {
  exe : Link.Linker.exe;
  mem : Bytes.t;
  regs : int64 array;  (** 16 registers; r0 = return value *)
  mutable cycles : int;
  mutable steps : int;
  max_steps : int;
  mutable budget_hit : bool;
      (** the last {!Fault} was step-budget exhaustion (see
          {!budget_exhausted}) *)
  host : (string, t -> int64) Hashtbl.t;
  mutable host_cost : int;  (** cycles charged per host call *)
  mutable block_hook : (t -> string -> int -> unit) option;
  mutable stack_base : int;
  mutable prof : profile option;
}

val mem_size : int

(** Fresh VM with the executable's data image loaded.
    @raise Fault if the image does not fit. *)
val create : ?max_steps:int -> Link.Linker.exe -> t

(** Host functions read their arguments from [regs.(0..5)] and return the
    value placed in r0. *)
val register_host : t -> string -> (t -> int64) -> unit

(** Called on every basic-block entry with (function name, block index). *)
val set_block_hook : t -> (t -> string -> int -> unit) -> unit

(** Charge extra cycles (instrumentation-engine overhead models). *)
val add_cycles : t -> int -> unit

(** Attach (or return the already-attached) execution profile. *)
val enable_profile : t -> profile

val profile : t -> profile option

(** Per-function cycle attribution, heaviest first (ties by name). *)
val profile_top : profile -> (string * int) list

(** Per-function block-entry counts, busiest first (ties by name). *)
val profile_blocks : profile -> (string * int) list

(** Per-site inline-counter attribution as (address, hits, cycles),
    ascending by address. The instrumentation layer maps addresses back
    to probe ids ({!Odin.Cov.probe_costs}). *)
val profile_inc_sites : profile -> (int * int * int) list

(** @raise Link.Linker.Link_error for unknown symbols. *)
val addr_of : t -> string -> int64

(** Typed little-endian memory access (loads sign-extend to the type's
    width). @raise Fault on out-of-bounds access. *)
val load_mem : t -> Ir.Types.ty -> int64 -> int64

val store_mem : t -> Ir.Types.ty -> int64 -> int64 -> unit

(** Copy an input buffer into fresh memory below the stack; returns its
    address. *)
val write_buffer : t -> string -> int64

(** Call a function with up to 6 integer arguments; returns r0.
    @raise Fault on traps (undefined symbols, division by zero, memory
    faults, stack overflow, step-budget exhaustion). *)
val call : t -> string -> int64 list -> int64

(** Reset cycle/step counters (memory and globals keep their state). *)
val reset_counters : t -> unit

(** Did the last {!Fault} come from step-budget exhaustion? Lets callers
    classify "ran too long" (deterministic timeout — e.g. a mutation
    campaign's timeout verdict) apart from a genuine trap, without
    parsing the fault message. *)
val budget_exhausted : t -> bool

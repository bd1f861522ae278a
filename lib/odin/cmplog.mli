(** CmpLog: comparison-operand logging for input-to-state correspondence
    (RedQueen), the paper's running example. One probe per comparison; an
    enabled probe calls [__odin_on_cmp(pid, lhs, rhs)] *before* the
    comparison, so — because Odin instruments before optimization — the
    logged operands are direct copies of the program's original values
    (the Figure 2 correctness property). *)

val runtime_fn : string

type record = { rec_pid : int; rec_lhs : int64; rec_rhs : int64 }

(** Fresh SSA names that are unique even before splicing (shared with the
    checks scheme), reserved in the function's allocator of the current
    patch pass. Derived from the probe id — deterministic across
    rebuilds, never from mutable campaign state, so printed fragment IR
    is stable enough to content-address. *)
val gensym : Ir.Func.names -> pid:int -> string -> string

type t = {
  session : Session.t;
  log : record Queue.t;
  outcomes : (int, bool * bool) Hashtbl.t;  (** pid -> (seen =, seen <>) *)
}

val patch : Session.sched -> unit

(** One probe per comparison in every defined function; declares the
    runtime function and installs the patch logic. *)
val setup : Session.t -> t

(** The host function to register with the VM under {!runtime_fn}. *)
val host_hook : t -> Vm.t -> int64

(** Drain the operand log collected since the last call. *)
val drain : t -> record list

(** Remove probes whose comparison has seen both outcomes (the AFL++
    roadblock policy of Section 2.1); returns how many were removed. *)
val prune_solved : t -> int

(** Sanitizer-style check probes (paper Section 7, future work): UBSan-like
    division guards and ASan-lite load guards as Odin probes, so hot
    checks (ASAP) or falsely-firing checks can be removed mid-campaign
    with a fragment recompile. *)

val div_fn : string
val load_fn : string

type violation = { v_pid : int; v_value : int64 }

type t = {
  session : Session.t;
  mutable violations : violation list;
  mutable trips : int;  (** total check executions (profiling) *)
}

val patch : Session.sched -> unit

(** One probe per division (and per load with [loads:true]); declares the
    runtime inspectors and installs the patch logic. *)
val setup : ?loads:bool -> Session.t -> t

(** Host functions to register with the VM (both inspectors). *)
val host_hooks : t -> (string * (Vm.t -> int64)) list

(** ASAP-style: remove checks tripped more than [threshold] times. *)
val prune_hot : ?threshold:int -> t -> int

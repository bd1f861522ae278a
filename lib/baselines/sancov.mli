(** SanitizerCoverage baseline: 8-bit counter per basic block, inserted at
    the very end of the optimization pipeline — fast, always-on, and
    observing the optimizer's CFG rather than the program's (the design
    the paper critiques in Section 2). *)

val counters_sym : string

type t = {
  exe : Link.Linker.exe;
  n_counters : int;
  block_of_counter : (int * string * string) array;
      (** counter id -> (id, function, block label) *)
}

(** Optimize a clone of the module, then instrument every block. *)
val build : ?keep:string list -> ?host:string list -> Ir.Modul.t -> t

val read_counter : Vm.t -> t -> int -> int

(** Indices of counters that fired. *)
val covered_counters : Vm.t -> t -> int list

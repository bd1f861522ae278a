(** Object-file format: the output of compiling one module (one fragment).
    A symbol is machine code or initialized data with 8-byte absolute
    relocations; aliases must have their base *defined* in the same
    object (the innate constraint of paper Section 2.3, enforced at
    emission). *)

type data = {
  d_bytes : Bytes.t;
  d_relocs : (int * string) list;  (** (byte offset, target symbol) *)
  d_const : bool;
}

type def = Code of Codegen.Mach.mfunc | Data of data

type sym = {
  s_name : string;
  s_global : bool;  (** exported (External linkage) *)
  s_def : def;
  s_comdat : string option;
}

type t = {
  o_name : string;
  o_syms : sym list;
  o_aliases : (string * string * bool) list;  (** (alias, target, global) *)
  o_undefined : string list;  (** referenced but not defined here *)
}

exception Emit_error of string

(** Lower a global initializer to bytes + relocations.
    @raise Emit_error for extern declarations. *)
val data_of_init : Ir.Modul.init -> const:bool -> data

(** Compile a (verified) module to an object file. [tier] selects the
    backend: [0] is the single-pass baseline ({!Codegen.Baseline}),
    anything else (default [1]) the optimizing backend. [cost]
    accumulates the modelled backend work.
    @raise Emit_error on an alias whose base is not defined here. *)
val of_module : ?tier:int -> ?cost:int ref -> Ir.Modul.t -> t

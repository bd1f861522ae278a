(** Basic blocks and functions. Blocks and functions are mutable — passes
    transform them in place; cloning (see {!Clone}) produces independent
    copies. *)

type block = {
  mutable label : string;
  mutable insns : Ins.ins list;
  mutable term : Ins.term;
}

type linkage =
  | External  (** exported; visible to other fragments/objects *)
  | Internal  (** local to its module/fragment *)

type t = {
  name : string;
  mutable linkage : linkage;
  mutable params : (Types.ty * string) list;
  mutable ret : Types.ty;
  mutable blocks : block list;  (** empty means declaration *)
  mutable comdat : string option;  (** COMDAT group key (innate constraint) *)
  mutable attrs : string list;
}

val mk :
  ?linkage:linkage ->
  ?comdat:string ->
  ?attrs:string list ->
  name:string ->
  params:(Types.ty * string) list ->
  ret:Types.ty ->
  block list ->
  t

val is_declaration : t -> bool

(** @raise Invalid_argument on declarations. *)
val entry : t -> block

val find_block : t -> string -> block option

(** @raise Invalid_argument when absent. *)
val find_block_exn : t -> string -> block

val iter_blocks : (block -> unit) -> t -> unit
val iter_insns : (Ins.ins -> unit) -> t -> unit
val fold_insns : ('a -> Ins.ins -> 'a) -> 'a -> t -> 'a
val block_count : t -> int
val insn_count : t -> int

(** Apply [f] to every operand of every instruction and terminator. *)
val map_values : (Ins.value -> Ins.value) -> t -> unit

(** Replace all uses of SSA register [name] with a value. *)
val replace_uses : t -> string -> Ins.value -> unit

(** A function's SSA names (parameters and instruction results), for
    allocating many fresh names with one walk of the function. *)
type names

val names : t -> names

(** The first of [hint], [hint.1], [hint.2], ... not in use, without
    reserving it. *)
val unused : names -> string -> string

(** {!unused}, reserved: later calls never return it again. *)
val alloc : names -> string -> string

(** For a batch of edits over several functions: [namer ()] builds a
    function's {!names} on first use and returns the same allocator for
    that function afterwards. *)
val namer : unit -> t -> names

(** Fresh SSA name / block label unique within this function. *)
val fresh_name : t -> string -> string

val fresh_label : t -> string -> string

(** Map from SSA name to its defining instruction. *)
val def_map : t -> (string, Ins.ins) Hashtbl.t

(** Use counts of SSA names within the function. *)
val use_counts : t -> (string, int) Hashtbl.t

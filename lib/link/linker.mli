(** The linked executable, the addresses it is laid out at, and the
    linker's diagnostics. {!Incremental} is the linker: {!Incremental.link}
    links once and {!Incremental.relink} keeps link state across
    refreshes; both produce an {!exe} with strong-symbol resolution,
    COMDAT folding (first definition of a group wins), aliases bound to
    their base symbol's address, absolute data relocations patched, and
    references the runtime provides bound to host thunks. *)

exception Link_error of string

(** Two symbols resolve to the same name outside a shared COMDAT group.
    [in_object] is the object bringing the second definition; [prior]
    the one that defined it first. *)
exception
  Duplicate_symbol of { symbol : string; in_object : string; prior : string }

(** A reference could not be satisfied by any object, the host-symbol
    list, or an alias. [referenced_from] names the referencing object
    (or the alias / data relocation that needs the symbol). *)
exception Undefined_symbol of { symbol : string; referenced_from : string }

(** Render any of the three linker exceptions as a one-line diagnostic;
    [None] for other exceptions. *)
val link_error_message : exn -> string option

type exe = {
  funcs : (string, Codegen.Mach.mfunc) Hashtbl.t;
  sym_addr : (string, int64) Hashtbl.t;
  fn_at_addr : (int64, string) Hashtbl.t;  (** code address -> function *)
  host_at_addr : (int64, string) Hashtbl.t;
  host_syms : (string, unit) Hashtbl.t;
  image : (int * Bytes.t) list;  (** (base address, initialized bytes) *)
}

(** First code address: code symbols take opaque 16-byte slots from
    here, host thunks 16-byte slots from [code_base - 0x10000]. *)
val code_base : int

(** First data address: data is laid out in a flat little-endian image
    from here, each symbol 8-aligned. *)
val data_base : int

(** @raise Link_error for unknown symbols. *)
val addr_of : exe -> string -> int64

val find_func : exe -> string -> Codegen.Mach.mfunc option

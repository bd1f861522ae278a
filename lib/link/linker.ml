(** The linked executable and the linker's diagnostics. The link
    itself — symbol choice, placement, host and alias binding,
    relocation — is {!Incremental}'s. *)

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

let error fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

let link_error_message = function
  | Link_error msg -> Some msg
  | Duplicate_symbol { symbol; in_object; prior } ->
    Some
      (Printf.sprintf "duplicate symbol @%s: defined in %s and again in %s"
         symbol prior in_object)
  | Undefined_symbol { symbol; referenced_from } ->
    Some
      (Printf.sprintf "undefined symbol @%s (referenced from %s)" symbol
         referenced_from)
  | _ -> None

type exe = {
  funcs : (string, Codegen.Mach.mfunc) Hashtbl.t;
  sym_addr : (string, int64) Hashtbl.t;
  fn_at_addr : (int64, string) Hashtbl.t;  (** code address -> function *)
  host_at_addr : (int64, string) Hashtbl.t;  (** host-symbol address -> name *)
  host_syms : (string, unit) Hashtbl.t;  (** resolved to the runtime *)
  image : (int * Bytes.t) list;  (** (base address, initialized bytes) *)
}

let code_base = 0x400000
let data_base = 0x40000

let addr_of exe name =
  match Hashtbl.find_opt exe.sym_addr name with
  | Some a -> a
  | None -> error "no such symbol @%s" name

let find_func exe name = Hashtbl.find_opt exe.funcs name

(** The uninstrumented reference build: whole-program O2 compile of a
    clone of the pristine IR. All figures normalize against it. *)

val build : ?keep:string list -> ?host:string list -> Ir.Modul.t -> Link.Linker.exe

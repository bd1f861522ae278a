(** The linker, with incremental relinking: a persistent link state
    that lets a refresh pay only for the fragments that actually
    changed.

    There is one link algorithm. It chooses symbols (strong resolution,
    COMDAT folding: the first definition of a group wins), places every
    object into a private {e address slab} — a contiguous code range
    (16-byte call slots) and a contiguous data range (8-aligned) — binds
    host thunks and aliases, and patches data relocations. A one-shot
    {!link} sizes every slab exactly to its object, so symbols lie back
    to back. A {!relink} pads each slab to a power of two so the object
    can grow in place. Because an unchanged object keeps its slab, its
    symbols keep their addresses across refreshes, and a subsequent
    {!relink} with a small [changed] set only

    - re-places the changed objects' symbols inside their slabs,
    - re-patches the changed objects' own data relocations, and
    - uses a {e reverse relocation index} (symbol -> inbound reference
      sites) to fix up the few slots in {e other} objects that point at
      a symbol which moved,

    instead of re-resolving the whole program. The patch path places,
    binds and relocates through the full link's own routines, with
    journaled table writes. A failed patch is observably a no-op: the
    symbol tables are patched in place — touching O(changed) bindings
    rather than copying O(program) tables — under an undo journal that
    restores every touched binding before any exception escapes, and
    data bytes are copy-on-write, so a mid-patch failure — including an
    injected ["link.patch"] fault — leaves the previous executable
    serving, exactly like a failed full link. (The sharing cuts the
    other way too: after a {e successful} patch, an exe value captured
    before it keeps its byte image but reads the updated symbol
    tables.) A relink yields the executable the next VM loads; a VM
    already running keeps the image it was created with.

    The patch path {e falls back to a full link} (same diagnostics,
    fresh slabs) whenever it cannot prove the cheap path safe: first
    link, object list changed, a host symbol {e removed}, a changed
    object's exported symbol set / alias list / COMDAT keys changed, a
    slab outgrown, a reference it cannot resolve against the existing
    tables, or a symbol collision — including a changed object that
    defines one name twice (so [Duplicate_symbol] / [Undefined_symbol]
    are always raised by the full path with their usual diagnostics).

    {e Host-symbol slabs}: host symbols live in their own slab (16-byte
    thunk addresses below the code base) with a cursor persisted in the
    link state, so {e adding} a host symbol — or a changed object
    referencing one for the first time — patches incrementally: the new
    name gets the next thunk address off the cursor. Host calls resolve
    by name at run time, so cursor-order placement is observably
    identical to the full link's.

    {e Slab compaction}: when a changed object outgrows its slab the
    patch falls back, and the full link re-lays that slab with capacity
    for the recorded {e high-water} shape so the growth is absorbed
    next time. Repeated overflows (address space ballooning, stats
    visible as [st_overflows]) trigger a compaction: the inflation is
    dropped and the next full link lays slabs out tight again
    ([st_compactions]).

    Torn patches are detected: every re-placed symbol and every patched
    relocation slot is verified after patching; a mismatch (e.g. the
    ["link.patch"] torn fault corrupting its own output) raises
    {!Linker.Link_error}, which callers treat like any link failure.

    Cost model ([ls_cost]): a full link costs [2000 + 40 * ls_resolved]
    cycles, where [ls_resolved] counts the references and relocation
    slots it resolved; an incremental patch costs
    [200 + 40 * (symbols_patched + relocs_patched)] — the work actually
    done. *)

type t

(** Work and outcome of the most recent {!relink}. *)
type link_stats = {
  ls_incremental : bool;  (** served by the patch path *)
  ls_symbols_patched : int;  (** symbols (and aliases) re-placed *)
  ls_relocs_patched : int;  (** 8-byte slots rewritten (own + inbound) *)
  ls_resolved : int;  (** full-link resolution work; 0 on a patch *)
  ls_cost : int;  (** modelled cycles, see the cost model above *)
}

(** Cumulative counters since {!create}. *)
type stats = {
  mutable st_full : int;  (** full (re)links, including fallbacks *)
  mutable st_incremental : int;  (** patch-path relinks *)
  mutable st_fallbacks : int;  (** patch attempts that fell back *)
  mutable st_symbols_patched : int;
  mutable st_relocs_patched : int;
  mutable st_overflows : int;  (** fallbacks caused by a slab outgrown *)
  mutable st_compactions : int;  (** high-water inflation drops *)
}

(** Slab geometry, exposed for tests and diagnostics. *)
type slab_info = {
  si_obj : string;
  si_code_base : int;
  si_code_cap : int;  (** capacity in 16-byte code slots *)
  si_data_base : int;
  si_data_cap : int;  (** capacity in bytes *)
}

(** [link ?host objs] links [objs] once, every slab sized exactly to
    its object; [host] names symbols satisfied by the runtime. Declares
    the ["link"] fault site.
    @raise Linker.Duplicate_symbol on a strong-symbol collision
    @raise Linker.Undefined_symbol on an unsatisfiable reference *)
val link : ?host:string list -> Objfile.t list -> Linker.exe

(** Fresh, empty link state: the first {!relink} is always full. *)
val create : unit -> t

(** Growth-padding policy (exposed for tests): capacity reserved for
    [n] code symbols (slots) / [n] bytes of data. *)
val code_capacity : int -> int

val data_capacity : int -> int

(** [relink t ~changed objs] links [objs] (same meaning as {!link}),
    reusing the previous link when possible. [changed] names the
    objects (by [o_name]) whose contents differ from the previous call;
    every other object must be byte-identical to what it was. Object
    names must be distinct, because the link state is keyed by
    [o_name]; the patch path accepts only the name list its last full
    link stored. [incremental:false] forces a full link (fresh slabs).

    Declares the ["link"] fault site (every call) and the
    ["link.patch"] site (patch path only; supports raise / transient /
    torn kinds).
    @raise Linker.Duplicate_symbol and
    @raise Linker.Undefined_symbol with the same diagnostics as {!link}
    (the patch path falls back rather than diagnose)
    @raise Linker.Link_error when a torn patch is detected
    @raise Invalid_argument when two objects share a name (unlike
    {!link}, which accepts it) *)
val relink :
  ?incremental:bool ->
  ?host:string list ->
  t ->
  changed:string list ->
  Objfile.t list ->
  Linker.exe

(** Most recent link's work; meaningful after the first {!relink}. *)
val last : t -> link_stats

val stats : t -> stats

(** Slab geometry of the committed link, in link order; [[]] before the
    first link. *)
val slabs : t -> slab_info list

(** Overflows tolerated before the automatic compaction (exposed for
    tests). *)
val compact_threshold : int

(** Force a compaction: drop the overflow high-water capacity inflation
    {e and} the link state, so the next {!relink} is a full link with
    tight slabs. Counted in [st_compactions]. *)
val compact : t -> unit

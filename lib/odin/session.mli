(** The Odin engine (paper Sections 3.1, 3.3 and 4).

    A session owns the pristine whole-program IR, the partition plan, the
    probe manager, the per-fragment machine-code cache and the linked
    executable. The lifecycle is:

    {[
      let session = Session.create ~keep:["main"] m in
      (* register probes on session.manager; set the patcher *)
      ignore (Session.build session);           (* initial full build *)
      ... run Session.executable, change probe state ...
      ignore (Session.refresh session)          (* on-the-fly recompile *)
    ]}

    A refresh changes what the next {!executable} call returns; an
    execution already running keeps the image its VM was created with.

    [refresh] runs Algorithm 2: changed probes are propagated to their
    fragments, the fragments' *other* active probes are back-propagated in
    (so they survive the recompile), a temporary IR is extracted by
    cloning exactly the affected symbols, the user patch logic instruments
    it, and each affected fragment is re-optimized, re-compiled and
    relinked from the cache.

    Rebuilds are {e transactional}: mutable session state is snapshotted
    before each build/refresh. A fragment whose compile keeps failing
    after bounded retries degrades to its last-good (or pristine) object
    and re-heals on a later refresh; a patch- or link-stage failure rolls
    the whole session back to the snapshot. {!try_build} / {!try_refresh}
    report this as a {!rebuild_outcome}; {!build} / {!refresh} are the
    raising compatibility wrappers. *)

module SSet : Set.S with type elt = string

(** One (re)compilation: which fragments, how many probes applied, and
    measured wall-clock durations. A thin view over the telemetry span
    tree recorded during {!rebuild}. *)
type recompile_event = {
  ev_fragments : int list;  (** fragment ids scheduled *)
  ev_cache_hits : int;  (** of those, served from the object cache/store *)
  ev_probes_applied : int;
  ev_compile_time : float;  (** seconds, middle end + back end *)
  ev_link_time : float;  (** seconds *)
  ev_per_fragment : (int * float) list;  (** (fragment id, seconds) *)
  ev_link_incremental : bool;  (** served by patching instead of a full relink *)
  ev_symbols_patched : int;  (** symbols re-placed by the incremental linker *)
}

(** Pipeline stage a build error originated in. *)
type build_phase =
  | Schedule
  | Patch
  | Materialize
  | Verify
  | Optimize
  | Codegen
  | Cache
  | Store
  | Link
  | Lifecycle  (** API misuse, e.g. [executable] before [build] *)

(** Structured build failure: the stage, the fragment being compiled (if
    any), the active probe ids in that fragment, and the underlying
    exception when one exists. *)
type build_error = {
  err_phase : build_phase;
  err_fragment : int option;
  err_probes : int list;
  err_exn : exn option;
  err_msg : string;
}

exception Build_error of build_error

val phase_to_string : build_phase -> string

(** Readable multi-line diagnostic (what [odinc] prints). *)
val build_error_to_string : build_error -> string

(** Result of a transactional rebuild: [Ok] — every scheduled fragment
    compiled and linked; [Degraded fids] — the listed fragments serve
    their last-good (or pristine) object after bounded retries failed and
    re-heal on the next refresh; [Rolled_back err] — a patch- or
    link-stage failure restored the pre-rebuild snapshot (previous
    executable, fragment cache and probe epoch intact). *)
type rebuild_outcome = Ok | Degraded of int list | Rolled_back of build_error

(** Content-addressed object cache: structural digest ({!Ir.Shash}) of
    the instrumented fragment IR (plus opt config) -> finished object.
    It is the session's only in-memory object cache, bounded by its
    size: a lookup runs right after the digest, so a hit skips verify,
    the store and {!Opt.Pipeline} (an entry is only added for a module
    that verified). Shareable between sessions over the same base
    module (the fuzzing farm's workers): a fragment compiled by one
    session is a hit for every other. Each entry carries the [~owner]
    that put it there, and a hit on an entry some {e other} session put
    there is counted as a {e cross hit}. *)
type cache_shard = {
  cs_lru : (int * Link.Objfile.t) Support.Lru.t;
      (** key -> (owner that produced the entry, object) *)
  cs_lock : Mutex.t;
}

(** The cache is lock-striped: a key maps deterministically (first
    digest byte) to one of [shards] independent LRU shards, each behind
    its own mutex, so parallel compiles rarely contend. *)
type object_cache = {
  oc_shards : cache_shard array;
  oc_cross_hits : int Atomic.t;
  oc_waits : int Atomic.t;
}

(** A fresh shareable cache. [size] = total LRU entry bound (default
    256), split evenly across [shards] stripes (default 8, clamped to
    [size] so a 1-entry cache still evicts like one). *)
val object_cache : ?size:int -> ?shards:int -> unit -> object_cache

(** Hits served to a session other than the one that produced the
    entry; 0 unless the cache is shared. *)
val cross_hits : object_cache -> int

(** Lock acquisitions that found their shard's mutex already held
    (i.e. would have blocked); the contention signal behind the
    [session.cache_shard_waits] counter. *)
val shard_waits : object_cache -> int

(** Total LRU evictions across all shards. *)
val cache_evictions : object_cache -> int

type t = {
  base : Ir.Modul.t;  (** pristine IR; instrumentation never touches it *)
  plan : Partition.plan;
  manager : Instr.Manager.t;
  cache : (int, Link.Objfile.t) Hashtbl.t;  (** fragment id -> object *)
  objects : object_cache;
      (** content-addressed object cache; private by default, shared
          when the session was created with [?objects] *)
  owner : int;  (** this session's identity for cross-hit accounting *)
  store : Support.Objstore.t option;
      (** persistent on-disk tier behind [objects] ([cache_dir]) *)
  pool : Support.Pool.t;  (** executor for per-fragment compiles *)
  runtime : Link.Objfile.t;
  linker : Link.Incremental.t;
      (** persistent link state (address slabs + reverse relocation
          index); lets a refresh patch only what changed *)
  incr_link : bool;
      (** serve rebuilds through the incremental patch path when safe;
          [false] selects the full-link reference path (see
          {!Link.Incremental}) *)
  incr_sched : bool;
      (** O(changed) refresh path: schedule from the dirty-set through
          the persistent symbol->fragment indexes; [false] selects the
          full-walk reference path *)
  clone_index : (string, int list) Hashtbl.t;
      (** copy-on-use symbol -> fragments holding a clone of it
          (fragment ids ascending); built once at create, immutable —
          the plan's clone sets never change after partitioning *)
  mutable tiered : bool;
      (** two-tier compilation: freshly changed fragments compile
          through the single-pass tier-0 baseline backend and hot
          fragments are promoted to the optimizing tier in the
          background. Off by default; an untiered session behaves
          exactly as before (everything tier 1) *)
  tier_of : (int, int) Hashtbl.t;
      (** fragment id -> tier its current object was compiled at *)
  promote_pending : (int, unit) Hashtbl.t;
      (** fragments queued for promotion; force-scheduled like
          [degraded] until their tier-1 object lands *)
  mutable tier0_compiles : int;
  mutable tier0_cost : int;
  mutable tier1_compiles : int;
  mutable tier1_cost : int;
  mutable promotion_count : int;
  mutable host : string list;
  mutable exe : Link.Linker.exe option;
  mutable patchers : (sched -> unit) list;
  mutable last_event : recompile_event option;
      (** the most recent successful rebuild's event (what {!build},
          {!refresh} and {!refresh_toggles} return); no history is kept *)
  degraded : (int, unit) Hashtbl.t;
      (** fragments serving a stale/pristine object; force-scheduled
          (re-healed) on every refresh until they compile cleanly *)
  max_retries : int;
  job_timeout : float option;
  mutable rollback_count : int;
  mutable degrade_count : int;
  telemetry : Telemetry.Recorder.t;
      (** every build/refresh records schedule → patch → per-fragment
          materialize/verify/optimize/codegen → link spans here; export
          with [Telemetry.Report] / [Telemetry.Trace]. Observation only:
          build results are identical whether or not it is ever read. *)
}

(** Scheduler handle passed to patch logic (the paper's [Scheduler]):
    the probes to apply and the pristine-to-temporary instruction map. *)
and sched = {
  session : t;
  active : Instr.Probe.t list;  (** probes to (re-)apply *)
  temp : Ir.Modul.t;  (** temporary IR: clones of all changed symbols *)
  map : Ir.Clone.map;
  changed_symbols : SSet.t;
  changed_fragments : int list;
}

(** [map_ins sched ins] is the clone of pristine instruction [ins] in the
    temporary IR ([Sched.map] in the paper's API). *)
val map_ins : sched -> Ir.Ins.ins -> Ir.Ins.ins option

(** Find a function by name in the temporary IR. *)
val map_func : sched -> string -> Ir.Func.t option

(** Create a session: verifies [base], runs the classification survey and
    builds the partition plan.
    @param mode partition scheme (default {!Partition.Auto})
    @param copy_on_use ablation switch for copy-on-use cloning
    @param keep entry points that stay exported
    @param runtime_globals data symbols owned by the instrumentation
      runtime (e.g. counter arrays), linked as a separate object
    @param host functions resolved to the fuzzer/VM at run time
    @param pool executor for per-fragment compiles (default: the
      process-wide [Support.Pool.default ()], sized by [ODIN_JOBS]).
      Build output is bit-identical for any pool size, including 1.
    @param objects share an existing {!object_cache} with other
      sessions instead of a private [object_cache ()]
    @param owner this session's identity for cross-hit accounting in a
      shared cache (default 0)
    @param cache_dir directory for the persistent object store; a
      restarted process with the same dir starts warm (corrupt entries
      are detected, quarantined and silently recompiled)
    @param max_retries bounded retry count for transient fragment-compile
      faults (default 2)
    @param job_timeout cooperative per-fragment compile watchdog
      (seconds); an overrunning job degrades instead of stalling the join
    @param incremental_link serve rebuilds through the incremental
      linker's patch path when provably safe (default [true]); [false]
      selects the full-link reference path that tests and benches
      compare against — executables are identical either way
    @param incremental_sched schedule refreshes from the probe dirty-set
      through persistent symbol->fragment indexes (default [true]);
      [false] selects the full-walk reference path — schedules, images
      and outcomes are identical either way
    @param tiered two-tier compilation (default: off, unless
      [ODIN_TIER=1]): freshly changed fragments compile through the
      single-pass tier-0 baseline backend ({!Codegen.Baseline}, no
      {!Opt.Pipeline}), and fragments queued by {!promote} /
      {!promote_hot} land optimized tier-1 objects as ordinary
      incremental relinks. A fully-promoted tiered session serves the
      same objects (same cache keys) as an untiered one
    @param telemetry recorder for build spans/counters (fresh monotonic
      recorder by default; tests inject a virtual-clock recorder) *)
val create :
  ?mode:Partition.mode ->
  ?copy_on_use:bool ->
  ?keep:string list ->
  ?runtime_globals:(string * int) list ->
  ?host:string list ->
  ?pool:Support.Pool.t ->
  ?objects:object_cache ->
  ?owner:int ->
  ?cache_dir:string ->
  ?max_retries:int ->
  ?job_timeout:float ->
  ?incremental_link:bool ->
  ?incremental_sched:bool ->
  ?tiered:bool ->
  ?telemetry:Telemetry.Recorder.t ->
  Ir.Modul.t ->
  t

(** Whether this session compiles freshly changed fragments through the
    tier-0 baseline backend. *)
val tiered : t -> bool

(** The tier of a fragment's current object: 1 for untiered sessions;
    for tiered sessions the tier it last compiled at (0 before any
    build — tiered sessions always start at the baseline). *)
val fragment_tier : t -> int -> int

(** Fragment ids currently queued for promotion, ascending. *)
val pending_promotions : t -> int list

(** Queue fragments for promotion to the optimizing tier; they are
    force-scheduled on the next refresh (like degraded fragments) and
    their tier-1 objects land as an ordinary incremental relink. No-op
    on untiered sessions and for fragments already at tier 1. *)
val promote : t -> int list -> unit

(** Promotion policy: accumulate per-function cycle attribution (e.g.
    [Vm.profile_top]) into per-fragment heat through the plan's
    symbol->fragment index and queue every tier-0 fragment whose share
    of total cycles is at least [threshold] (default 0.05). Returns the
    newly queued fragment ids, ascending. *)
val promote_hot : ?threshold:float -> t -> (string * int) list -> int list

(** Cumulative tier accounting: fresh compiles and modelled compile
    cost per tier (the [?cost] accounting threaded through
    {!Opt.Pipeline} and {!Link.Objfile.of_module}) and promotions
    landed. *)
type tier_stats = {
  ts_tier0_compiles : int;
  ts_tier0_cost : int;
  ts_tier1_compiles : int;
  ts_tier1_cost : int;
  ts_promotions : int;
}

val tier_stats : t -> tier_stats

(** Register an additional scheme's patch logic; registered patchers
    compose and all run on every rebuild. *)
val add_patcher : t -> (sched -> unit) -> unit

(** Declare a runtime function provided by the host at run time. *)
val add_host_symbol : t -> string -> unit

(** Compute the schedule for the current probe changes (Algorithm 2).
    [initial] schedules every fragment; [backprop:false] disables lines
    13-17 (ablation: unchanged probes in recompiled fragments vanish).
    Degraded fragments are always force-scheduled (re-heal) — the
    degraded set feeds the same dirty-set as toggled probes. With the
    incremental scheduler on, a non-initial schedule is O(changed):
    only the index-resolved dirty fragments are visited (the
    [session.schedule_visited] counter records the walk's extent). *)
val schedule : ?initial:bool -> ?backprop:bool -> t -> sched

(** Patch, split, optimize, codegen and relink the scheduled fragments,
    transactionally. Never raises on build failure: per-fragment failures
    degrade, patch/link failures roll back — see {!rebuild_outcome}. *)
val rebuild : sched -> rebuild_outcome

(** Initial build, transactional: schedule every fragment and build the
    executable, reporting the outcome instead of raising. *)
val try_build : t -> rebuild_outcome

(** Initial build: schedule every fragment and produce the executable.
    @raise Build_error when the build rolled back. *)
val build : t -> recompile_event

(** Incremental transactional rebuild after probe changes (or pending
    degraded fragments to re-heal); [None] when nothing to do. *)
val try_refresh : ?backprop:bool -> t -> rebuild_outcome option

(** Incremental rebuild after probe changes; [None] when nothing changed.
    @raise Build_error when the rebuild rolled back. *)
val refresh : ?backprop:bool -> t -> recompile_event option

(** Batched multi-toggle refresh: flip a whole probe set as ONE dirty-set
    update and ONE schedule pass (O(changed) with the incremental
    scheduler: K toggles visit the O(K) fragments those probes live in).
    [None] when the toggles were all no-ops and nothing else was pending;
    otherwise the transactional outcome plus the recompile event (absent
    on rollback). Never raises on build failure. *)
val refresh_toggles :
  ?backprop:bool ->
  t ->
  (Instr.Probe.t * bool) list ->
  (rebuild_outcome * recompile_event option) option

(** @raise Build_error before the first {!build}. *)
val executable : t -> Link.Linker.exe

(** (fragment id, number of member symbols) for every fragment. *)
val fragment_sizes : t -> (int * int) list

(** Fragments currently serving a stale/pristine object, sorted. *)
val degraded_fragments : t -> int list

(** Rebuilds rolled back to their snapshot so far. *)
val rollbacks : t -> int

(** Total fragment degradations over the session's lifetime. *)
val degrade_total : t -> int

(** Persistent-store statistics, when [cache_dir] was given. *)
val store_stats : t -> Support.Objstore.stats option

(** Format version of the persistent store's entries (cache-key scheme
    + object layout). Bumped whenever either changes; a mismatched
    on-disk store is wiped on open. v2: structural IR digests
    ({!Ir.Shash}) replaced printed-IR digests in the cache key. v3: the
    compilation tier joined the key. *)
val store_format_version : int
(** The Odin engine: owns the pristine whole-program IR, the partition
    plan, the probe manager, the machine-code cache, and the linked
    executable. Implements the recompilation scheduler (paper Section
    3.3, Algorithm 2) and the copy-instrument-split flow of Figure 7.

    Timing: every rebuild is recorded as a tree of telemetry spans
    (schedule → patch → per-fragment materialize/verify/optimize/codegen
    → link) on the session's recorder; [recompile_event] is a thin view
    over that span tree, and the benchmark harness reproduces Figures
    11/12 and the 82 ms average from these records. The recorder only
    observes — build results are bit-identical whether or not anyone
    ever exports a report or trace from it.

    Executions: a rebuild produces the executable the {e next}
    execution runs on; a running VM keeps its image. The session keeps
    only the last rebuild's event ([last_event]), so a long campaign
    does not grow a history; callers that want one keep their own.

    Concurrency: scheduled fragments compile in parallel on a
    [Support.Pool] (the link step stays a serial barrier), and a
    content-addressed LRU object cache in front of verify, optimize and
    codegen turns probe toggle round-trips into relink-only refreshes.
    Both are invisible to correctness: output is bit-identical for any
    pool size.

    Fault tolerance: [build]/[refresh] are transactional. The mutable
    session state (fragment cache, executable, degradation set) is
    snapshotted before a rebuild. Fragment-compile failures are
    isolated: a transient fault is retried (bounded, virtual-clock
    backoff), a persistent one *degrades* the fragment to its last-good
    — or pristine — object instead of killing the rebuild, and the
    fragment is re-healed on the next refresh. Only a patch- or
    link-stage failure rolls the whole session back to the snapshot;
    the executable is therefore always a consistent version of every
    fragment. The {!rebuild_outcome} reports which of the three cases
    happened; exceptions never escape pool jobs. *)

module SSet = Set.Make (String)

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

(* ------------------------------------------------------------------ *)
(* Structured build errors and rebuild outcomes                        *)
(* ------------------------------------------------------------------ *)

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

type build_error = {
  err_phase : build_phase;
  err_fragment : int option;  (** fragment being compiled, if any *)
  err_probes : int list;  (** active probe ids in that fragment *)
  err_exn : exn option;  (** underlying exception, when one exists *)
  err_msg : string;
}

exception Build_error of build_error

let phase_to_string = function
  | Schedule -> "schedule"
  | Patch -> "patch"
  | Materialize -> "materialize"
  | Verify -> "verify"
  | Optimize -> "optimize"
  | Codegen -> "codegen"
  | Cache -> "cache"
  | Store -> "store"
  | Link -> "link"
  | Lifecycle -> "lifecycle"

(** Render a build error as a readable multi-line diagnostic (what
    [odinc] prints instead of a raw backtrace). *)
let build_error_to_string e =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "build failed in phase `%s'" (phase_to_string e.err_phase));
  (match e.err_fragment with
  | Some fid -> Buffer.add_string b (Printf.sprintf ", fragment #%d" fid)
  | None -> ());
  (match e.err_probes with
  | [] -> ()
  | ps ->
    Buffer.add_string b
      (Printf.sprintf " (probes %s)"
         (String.concat " " (List.map (Printf.sprintf "#%d") ps))));
  Buffer.add_string b (": " ^ e.err_msg);
  (match e.err_exn with
  | Some exn ->
    Buffer.add_string b ("\n  caused by: " ^ Printexc.to_string exn)
  | None -> ());
  Buffer.contents b

let mk_error ?fragment ?(probes = []) ?exn_ phase msg =
  {
    err_phase = phase;
    err_fragment = fragment;
    err_probes = probes;
    err_exn = exn_;
    err_msg = msg;
  }

(** Result of a transactional rebuild: [Ok] — every scheduled fragment
    compiled and linked; [Degraded fids] — the listed fragments are
    serving their last-good (or pristine) object after bounded retries
    failed, everything else is fresh, and the fragments re-heal on the
    next refresh; [Rolled_back err] — a patch- or link-stage failure
    restored the pre-rebuild snapshot (previous executable, cache and
    probe epoch intact). *)
type rebuild_outcome = Ok | Degraded of int list | Rolled_back of build_error

(** Content-addressed object cache: structural digest of the
    instrumented fragment IR (plus opt config) -> finished object. A
    hit skips verify, optimize and codegen — probe sets toggled off and
    on again relink the cached object instead of recompiling.

    The cache is shareable: several sessions over the same base module
    (the fuzzing farm's workers) can be created with one
    {!object_cache}, so a fragment compiled by one worker is a hit for
    every other. Each entry carries the session ([~owner]) that put it
    there; a hit by a different session is a {e cross hit}, the farm's
    measure of sharing. *)
type cache_shard = {
  cs_lru : (int * Link.Objfile.t) Support.Lru.t;
      (** key -> (owner that produced the entry, object) *)
  cs_lock : Mutex.t;  (** guards [cs_lru] *)
}

type object_cache = {
  oc_shards : cache_shard array;
      (** lock striping: a key lives in exactly one shard, selected by
          its digest's first byte, so parallel compiles of different
          fragments almost never contend on the same mutex *)
  oc_cross_hits : int Atomic.t;
  oc_waits : int Atomic.t;  (** times a lock acquisition had to block *)
}

let object_cache ?(size = 256) ?(shards = 8) () =
  (* never more shards than entries: [~size:1] must behave as a single
     1-entry LRU (eviction tests rely on it) *)
  let n = max 1 (min shards size) in
  let per = max 1 ((size + n - 1) / n) in
  {
    oc_shards =
      Array.init n (fun _ ->
          { cs_lru = Support.Lru.create per; cs_lock = Mutex.create () });
    oc_cross_hits = Atomic.make 0;
    oc_waits = Atomic.make 0;
  }

(* Digest keys are raw MD5 bytes: the first byte is uniform, and the
   mapping is a pure function of the key, so shard placement is
   deterministic across runs and pool sizes. *)
let shard_for oc key =
  let b = if String.length key = 0 then 0 else Char.code key.[0] in
  oc.oc_shards.(b mod Array.length oc.oc_shards)

let with_shard oc key f =
  let cs = shard_for oc key in
  if not (Mutex.try_lock cs.cs_lock) then begin
    Atomic.incr oc.oc_waits;
    Mutex.lock cs.cs_lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock cs.cs_lock) (fun () -> f cs)

(** Hits served to a session other than the one that produced the
    entry; 0 unless the cache is shared. *)
let cross_hits oc = Atomic.get oc.oc_cross_hits

(** Lock acquisitions that found their shard's mutex held. *)
let shard_waits oc = Atomic.get oc.oc_waits

let cache_evictions oc =
  Array.fold_left
    (fun acc cs -> acc + Support.Lru.evictions cs.cs_lru)
    0 oc.oc_shards

type t = {
  base : Ir.Modul.t;  (** pristine IR; instrumentation never touches it *)
  plan : Partition.plan;
  manager : Instr.Manager.t;
  cache : (int, Link.Objfile.t) Hashtbl.t;
  objects : object_cache;  (** content-addressed tier; possibly shared *)
  owner : int;  (** this session's identity in [objects]' entries *)
  store : Support.Objstore.t option;
      (** persistent tier behind [objects]: on-disk content-addressed
          store ([--cache-dir]) so a process restart starts warm *)
  pool : Support.Pool.t;  (** fragment compile executor *)
  runtime : Link.Objfile.t;  (** runtime globals (counter arrays, ...) *)
  linker : Link.Incremental.t;
      (** persistent link state: slabs + reverse relocation index, so a
          refresh relinks only what changed *)
  incr_link : bool;
      (** patch instead of full relink when safe; [false] selects the
          full-link reference path *)
  incr_sched : bool;
      (** O(changed) refreshes: schedule through the symbol->fragment
          indexes; [false] selects the full-walk reference path *)
  clone_index : (string, int list) Hashtbl.t;
      (** copy-on-use symbol -> fragments that cloned it (fid ascending);
          built once from the plan — with [plan.frag_of] it answers the
          symbols->fragments step of Algorithm 2 without the full walk *)
  mutable tiered : bool;
      (** two-tier compilation: freshly changed fragments compile through
          the single-pass tier-0 baseline backend (no [Opt.Pipeline], no
          liveness), and fragments the profile marks hot are *promoted*
          to the optimizing tier-1 backend by an ordinary incremental
          relink. Off by default — an untiered session compiles
          everything at tier 1, exactly as before *)
  tier_of : (int, int) Hashtbl.t;
      (** fragment id -> tier its current object was compiled at; absent
          means "not compiled yet" (tiered) / tier 1 (untiered) *)
  promote_pending : (int, unit) Hashtbl.t;
      (** fragments queued for background promotion to tier 1; they are
          force-scheduled on the next refresh like [degraded] and leave
          the queue when their tier-1 object lands *)
  mutable tier0_compiles : int;  (** fragments compiled by the baseline *)
  mutable tier0_cost : int;  (** modelled backend work at tier 0 *)
  mutable tier1_compiles : int;  (** fragments compiled by the optimizer *)
  mutable tier1_cost : int;  (** modelled opt+backend work at tier 1 *)
  mutable promotion_count : int;  (** tier-0 -> tier-1 promotions landed *)
  mutable host : string list;
  mutable exe : Link.Linker.exe option;
  mutable patchers : (sched -> unit) list;
      (** user patch logic: applies active probes to the temporary IR;
          schemes compose (coverage + CmpLog + checks in one session) *)
  mutable last_event : recompile_event option;
      (** the most recent successful rebuild's event; the session keeps
          no history, so a long campaign stays bounded in memory *)
  degraded : (int, unit) Hashtbl.t;
      (** fragments currently serving a stale/pristine object; they are
          force-scheduled (re-healed) on every refresh until clean *)
  max_retries : int;  (** bounded retries for transient faults *)
  job_timeout : float option;
      (** cooperative per-fragment watchdog (seconds); an overrunning
          compile job is marked degraded instead of stalling the join *)
  mutable rollback_count : int;
  mutable degrade_count : int;  (** total fragment degradations ever *)
  telemetry : Telemetry.Recorder.t;
      (** spans/counters for every build; the timing source of
          [last_event] *)
}

(** Scheduler handle passed to patch logic (paper Section 4): exposes the
    probes to apply and the pristine-to-temporary instruction map. *)
and sched = {
  session : t;
  active : Instr.Probe.t list;  (** probes to (re-)apply *)
  temp : Ir.Modul.t;  (** temporary IR: clone of all changed symbols *)
  map : Ir.Clone.map;
  changed_symbols : SSet.t;
  changed_fragments : int list;
}

(** Translate a pristine instruction to its clone in the temporary IR
    ([Sched.map] in the paper's API). *)
let map_ins sched ins = Ir.Clone.map_ins sched.map ins

let map_func sched name = Ir.Modul.find_func sched.temp name

(* Bump when the marshalled Objfile payload or the key derivation
   changes shape: a version mismatch makes an existing on-disk store
   invalidate cleanly. 2 = structural (Ir.Shash) cache keys; 3 = the
   compilation tier joined the key (a tier-0 object must never satisfy
   a tier-1 lookup, or vice versa). *)
let store_format_version = 3

(* Fixpoint bound for fragment re-optimization. Every cache key carries
   it as [rounds=2;]: changing it changes every key, which needs a
   [store_format_version] bump. *)
let opt_rounds = 2

(* ------------------------------------------------------------------ *)
(* Session construction                                                *)
(* ------------------------------------------------------------------ *)

(* ODIN_TIER=1 (or true/on/yes) enables tiered compilation process-wide;
   ODIN_TIER=0 (or unset) keeps the classic always-optimized pipeline.
   The [?tiered] create param overrides. *)
let env_tiered () =
  match Sys.getenv_opt "ODIN_TIER" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(** Create a session for [base].
    [runtime_globals] are data symbols owned by the instrumentation
    runtime (e.g. coverage counter arrays), linked as a separate object;
    [host] names functions provided by the host/fuzzer at run time;
    [cache_dir] enables the persistent object store (campaign restarts
    start warm); [max_retries] bounds per-fragment retry attempts on
    transient faults; [job_timeout] arms the cooperative per-fragment
    compile watchdog; [objects] shares one content-addressed object
    cache between several sessions (see {!object_cache}), with [owner]
    identifying this session for cross-hit accounting;
    [incremental_link:false] / [incremental_sched:false] select the
    full-link / full-walk reference paths the tests compare against. *)
let create ?(mode = Partition.Auto) ?(copy_on_use = true) ?(keep = [ "main" ])
    ?(runtime_globals = []) ?(host = []) ?pool ?objects ?(owner = 0) ?cache_dir
    ?(max_retries = 2) ?job_timeout ?(incremental_link = true)
    ?(incremental_sched = true) ?tiered
    ?(telemetry = Telemetry.Recorder.create ()) (base : Ir.Modul.t) =
  Ir.Verify.run_exn base;
  (* session setup is not a rebuild: the classification survey runs the
     trial O2 pipeline, which shares the opt.pipeline fault site with
     fragment recompiles — suppress injection here so fault plans only
     exercise the transactional build/refresh paths *)
  let cls =
    Telemetry.Recorder.with_span telemetry ~cat:"session" "classify" (fun () ->
        Support.Fault.with_suppressed (fun () -> Classify.classify ~keep base))
  in
  let plan =
    Telemetry.Recorder.with_span telemetry ~cat:"session" "partition" (fun () ->
        Partition.plan ~mode ~copy_on_use ~keep base cls)
  in
  (* runtime object: plain data symbols, always linked *)
  let runtime_module = Ir.Modul.create ~name:"odin.runtime" () in
  List.iter
    (fun (name, size) ->
      ignore
        (Ir.Modul.add_var runtime_module ~linkage:Ir.Func.External ~name
           (Ir.Modul.Zero size)))
    runtime_globals;
  let runtime = Link.Objfile.of_module runtime_module in
  (* persistent symbol->fragment index for copy-on-use clones: a change
     to a cloned symbol dirties every fragment that cloned it.
     [plan.frag_of] covers members; this covers clones. Built once —
     the plan is immutable, so the index never goes stale. *)
  let clone_index = Hashtbl.create 64 in
  Array.iter
    (fun (f : Partition.fragment) ->
      Partition.SSet.iter
        (fun s ->
          Hashtbl.replace clone_index s
            (f.Partition.fid
            :: Option.value ~default:[] (Hashtbl.find_opt clone_index s)))
        f.Partition.clones)
    plan.Partition.fragments;
  (* fragments were walked in fid order and prepended: reverse each
     bucket so lookups come back fid-ascending *)
  Hashtbl.iter
    (fun s fids -> Hashtbl.replace clone_index s (List.rev fids))
    (Hashtbl.copy clone_index);
  (* the base module must see runtime globals as declarations so that
     patch logic can reference them *)
  List.iter
    (fun (name, _) ->
      if not (Ir.Modul.mem base name) then
        ignore (Ir.Modul.add_var base ~linkage:Ir.Func.External ~name Ir.Modul.Extern))
    runtime_globals;
  {
    base;
    plan;
    manager = Instr.Manager.create ();
    cache = Hashtbl.create 32;
    objects = (match objects with Some oc -> oc | None -> object_cache ());
    owner;
    store =
      Option.map
        (fun dir -> Support.Objstore.open_store ~version:store_format_version dir)
        cache_dir;
    pool = (match pool with Some p -> p | None -> Support.Pool.default ());
    runtime;
    linker = Link.Incremental.create ();
    incr_link = incremental_link;
    incr_sched = incremental_sched;
    clone_index;
    tiered = (match tiered with Some b -> b | None -> env_tiered ());
    tier_of = Hashtbl.create 32;
    promote_pending = Hashtbl.create 8;
    tier0_compiles = 0;
    tier0_cost = 0;
    tier1_compiles = 0;
    tier1_cost = 0;
    promotion_count = 0;
    host;
    exe = None;
    patchers = [];
    last_event = None;
    degraded = Hashtbl.create 8;
    max_retries = max 0 max_retries;
    job_timeout;
    rollback_count = 0;
    degrade_count = 0;
    telemetry;
  }

(* ------------------------------------------------------------------ *)
(* Tiered compilation                                                  *)
(* ------------------------------------------------------------------ *)

(** Whether this session compiles freshly changed fragments through the
    tier-0 baseline backend. *)
let tiered t = t.tiered

(* The tier a scheduled fragment compiles at on this rebuild: untiered
   sessions always optimize (tier 1, same cache keys as a fully-promoted
   tiered session); tiered sessions compile at tier 1 only when the
   fragment's promotion is pending, and at tier 0 otherwise — a probe
   toggle on a promoted fragment deliberately re-demotes it, because the
   edit path must stay single-pass; heat re-promotes it later. *)
let tier_for t fid =
  if not t.tiered then 1 else if Hashtbl.mem t.promote_pending fid then 1 else 0

(** The tier of [fid]'s current object: 1 for untiered sessions, and for
    tiered sessions the tier it last compiled at (0 before any build). *)
let fragment_tier t fid =
  match Hashtbl.find_opt t.tier_of fid with
  | Some tier -> tier
  | None -> if t.tiered then 0 else 1

(** Fragment ids currently queued for promotion, ascending. *)
let pending_promotions t =
  List.sort compare
    (Hashtbl.fold (fun fid () acc -> fid :: acc) t.promote_pending [])

(** Queue fragments for promotion to the optimizing tier; they are
    force-scheduled on the next refresh (like degraded fragments) and
    land as an ordinary incremental relink. No-op on untiered sessions
    and for fragments already serving a tier-1 object. *)
let promote t fids =
  if t.tiered then
    List.iter
      (fun fid ->
        if
          fid >= 0
          && fid < Array.length t.plan.Partition.fragments
          && fragment_tier t fid <> 1
        then Hashtbl.replace t.promote_pending fid ())
      fids

(** Promotion policy: given per-function cycle attribution (e.g.
    [Vm.profile_top]), accumulate heat per fragment through the plan's
    symbol->fragment index and queue every tier-0 fragment whose share
    of the total cycles is at least [threshold]. Returns the fragment
    ids newly queued, ascending. *)
let promote_hot ?(threshold = 0.05) t fn_cycles =
  if not t.tiered then []
  else begin
    let total =
      List.fold_left (fun acc (_, c) -> acc + max 0 c) 0 fn_cycles
    in
    if total = 0 then []
    else begin
      let heat = Hashtbl.create 16 in
      List.iter
        (fun (sym, cycles) ->
          match Hashtbl.find_opt t.plan.Partition.frag_of sym with
          | Some fid ->
            Hashtbl.replace heat fid
              (max 0 cycles
              + Option.value ~default:0 (Hashtbl.find_opt heat fid))
          | None -> ())
        fn_cycles;
      let hot =
        Hashtbl.fold
          (fun fid cycles acc ->
            if
              float_of_int cycles >= threshold *. float_of_int total
              && fragment_tier t fid <> 1
              && not (Hashtbl.mem t.promote_pending fid)
            then fid :: acc
            else acc)
          heat []
        |> List.sort compare
      in
      List.iter (fun fid -> Hashtbl.replace t.promote_pending fid ()) hot;
      hot
    end
  end

type tier_stats = {
  ts_tier0_compiles : int;
  ts_tier0_cost : int;  (** modelled backend work summed at tier 0 *)
  ts_tier1_compiles : int;
  ts_tier1_cost : int;  (** modelled opt+backend work summed at tier 1 *)
  ts_promotions : int;
}

let tier_stats t =
  {
    ts_tier0_compiles = t.tier0_compiles;
    ts_tier0_cost = t.tier0_cost;
    ts_tier1_compiles = t.tier1_compiles;
    ts_tier1_cost = t.tier1_cost;
    ts_promotions = t.promotion_count;
  }

(** Register an additional instrumentation scheme's patch logic; all
    registered patchers run (in registration order) on every rebuild. *)
let add_patcher t patcher = t.patchers <- t.patchers @ [ patcher ]

(** Declare a runtime function provided by the host (fuzzer) at run time;
    instrumentation schemes call this for their hooks. *)
let add_host_symbol t name =
  if not (List.mem name t.host) then t.host <- name :: t.host

(* ------------------------------------------------------------------ *)
(* Algorithm 2: scheduling fragments and probes                        *)
(* ------------------------------------------------------------------ *)

(* Which fragments must be recompiled given the changed symbols. *)
let propagate t changed_syms =
  let frag_ids = ref [] in
  Array.iter
    (fun (f : Partition.fragment) ->
      let touched =
        SSet.exists (fun s -> Partition.SSet.mem s f.Partition.members) changed_syms
        (* a change to a copy-on-use symbol dirties every fragment that
           cloned it *)
        || SSet.exists (fun s -> Partition.SSet.mem s f.Partition.clones) changed_syms
      in
      if touched then frag_ids := f.Partition.fid :: !frag_ids)
    t.plan.Partition.fragments;
  List.rev !frag_ids

(* Full symbol set of a fragment id list (the recompilation unit is the
   fragment, so scheduling a fragment schedules all its symbols). *)
let symbols_of_fragments t frag_ids =
  List.fold_left
    (fun acc fid ->
      let f = t.plan.Partition.fragments.(fid) in
      Partition.SSet.fold SSet.add f.Partition.members acc)
    SSet.empty frag_ids

(* Incremental symbols->fragments: answer the propagate question from
   the persistent indexes ([plan.frag_of] for members, [clone_index] for
   copy-on-use clones) instead of testing every fragment. Returns fid
   ascending — the exact list [propagate] would build. *)
let propagate_indexed t changed_targets =
  let set = Hashtbl.create 16 in
  List.iter
    (fun s ->
      (match Hashtbl.find_opt t.plan.Partition.frag_of s with
      | Some fid -> Hashtbl.replace set fid ()
      | None -> ());
      List.iter
        (fun fid -> Hashtbl.replace set fid ())
        (Option.value ~default:[] (Hashtbl.find_opt t.clone_index s)))
    changed_targets;
  List.sort compare (Hashtbl.fold (fun fid () acc -> fid :: acc) set [])

(** Compute the schedule for the current probe-state changes: detect the
    changed probes, propagate to fragments, back-propagate to the full
    set of active probes in those fragments, and extract the temporary
    IR (lines 1-18 of Algorithm 2). On the very first build, every
    fragment is scheduled. Fragments degraded by a previous rebuild are
    force-scheduled (the re-heal path) even when no probe changed.

    With the incremental scheduler on (the default), a non-initial
    schedule is O(changed): the dirty targets go through the persistent
    symbol->fragment indexes and the by-target probe index instead of
    walking every fragment and filtering every probe. The resulting
    [sched] is identical either way — the [session.schedule_visited]
    counter records how many fragments the walk actually examined. *)
let schedule ?(initial = false) ?(backprop = true) t =
  let n_fragments = Array.length t.plan.Partition.fragments in
  (* lines 2-6: changed probes -> symbols *)
  let changed_targets =
    if initial then [] else Instr.Manager.changed_targets t.manager
  in
  (* lines 7-11: symbols -> fragments (and back to the fragments' full
     symbol sets, since the recompilation unit is the fragment) *)
  let frag_ids =
    if initial then
      Array.to_list (Array.map (fun (f : Partition.fragment) -> f.Partition.fid)
        t.plan.Partition.fragments)
    else if t.incr_sched then propagate_indexed t changed_targets
    else
      propagate t
        (List.fold_left (fun acc s -> SSet.add s acc) SSet.empty changed_targets)
  in
  (* re-heal: degraded fragments rejoin every schedule until they
     compile cleanly again; queued promotions are force-scheduled the
     same way so a tier-1 object can land with no probe change *)
  let frag_ids =
    if Hashtbl.length t.degraded = 0 && Hashtbl.length t.promote_pending = 0
    then frag_ids
    else
      List.sort_uniq compare
        (Hashtbl.fold
           (fun fid () acc -> fid :: acc)
           t.degraded
           (Hashtbl.fold (fun fid () acc -> fid :: acc) t.promote_pending frag_ids))
  in
  (* visited = fragments the scheduler examined: the whole program on
     the full walk (and on the initial build), only the index-resolved
     dirty set on the incremental path *)
  let visited =
    if initial || not t.incr_sched then n_fragments else List.length frag_ids
  in
  Telemetry.Recorder.count (Some t.telemetry) ~by:visited
    "session.schedule_visited";
  let all_syms = symbols_of_fragments t frag_ids in
  (* lines 13-17: back-propagate to probes — every *activated* probe
     whose target lives in a scheduled fragment must be re-applied.
     [backprop:false] is the ablation DESIGN.md calls out: without this
     step, unchanged probes inside a recompiled fragment silently vanish
     from the new code. *)
  let active =
    if backprop then
      if t.incr_sched && not initial then
        (* collect through the by-target index: each scheduled fragment's
           member symbols name their probes directly. A probe's target
           lives in exactly one fragment's member set, so sorting by pid
           reproduces the full filter's registration order (pids are
           allocated monotonically; sort_uniq guards the invariant) *)
        List.concat_map
          (fun fid ->
            let f = t.plan.Partition.fragments.(fid) in
            Partition.SSet.fold
              (fun s acc ->
                List.rev_append (Instr.Manager.probes_on t.manager s) acc)
              f.Partition.members [])
          frag_ids
        |> List.filter (fun (p : Instr.Probe.t) -> p.Instr.Probe.enabled)
        |> List.sort_uniq (fun (a : Instr.Probe.t) (b : Instr.Probe.t) ->
               compare a.Instr.Probe.pid b.Instr.Probe.pid)
      else
        List.filter
          (fun (p : Instr.Probe.t) ->
            p.Instr.Probe.enabled && SSet.mem p.Instr.Probe.target all_syms)
          (Instr.Manager.to_list t.manager)
    else begin
      let changed = Instr.Manager.changed_probes t.manager in
      List.filter
        (fun (p : Instr.Probe.t) ->
          p.Instr.Probe.enabled
          && (initial || List.memq p changed)
          && SSet.mem p.Instr.Probe.target all_syms)
        (Instr.Manager.to_list t.manager)
    end
  in
  (* line 18: extract the temporary IR by cloning the changed symbols *)
  let temp, map = Ir.Clone.extract t.base (SSet.elements all_syms) in
  {
    session = t;
    active;
    temp;
    map;
    changed_symbols = all_syms;
    changed_fragments = frag_ids;
  }

(* ------------------------------------------------------------------ *)
(* Split, optimize, generate code, link (Figure 7, right half)         *)
(* ------------------------------------------------------------------ *)

(* Classify an exception raised during a fragment compile into a build
   error with the right phase. *)
let classify_fragment_exn ~fid ~probes exn_ =
  match exn_ with
  | Build_error e -> { e with err_fragment = Some fid; err_probes = probes }
  | Support.Fault.Injected site | Support.Fault.Transient_fault site ->
    let phase =
      match site with
      | "opt.pipeline" -> Optimize
      | "codegen.emit" -> Codegen
      | "cache.get" -> Cache
      | "store.read" | "store.write" -> Store
      | _ -> Materialize
    in
    mk_error ~fragment:fid ~probes ~exn_ phase
      (Printf.sprintf "injected fault at site %s" site)
  | Support.Fault.Timed_out site ->
    mk_error ~fragment:fid ~probes ~exn_ Codegen
      (Printf.sprintf "compile watchdog expired at site %s" site)
  | e ->
    mk_error ~fragment:fid ~probes ~exn_:e Codegen
      (Printf.sprintf "fragment compile raised %s" (Printexc.to_string e))

(* Virtual-clock exponential backoff between transient-fault retries:
   never blocks a domain, counts toward the job watchdog budget. *)
let backoff_delay attempt = 0.001 *. (2. ** float_of_int attempt)

(* Every stage of the copy-instrument-split flow runs inside a telemetry
   span; the recompile_event returned to callers is a view over the span
   durations (one source of timing truth — reports derived from the span
   tree always agree with the events).

   Transactionality: [rebuild] snapshots the fragment cache, executable
   and degradation set up front. Fragment jobs never raise — each
   returns either an object (fresh, cached, or degraded last-good /
   pristine) or a fatal error; patch- or link-stage failure (or a fatal
   fragment) restores the snapshot and reports [Rolled_back]. *)
let rebuild (sched : sched) =
  let t = sched.session in
  let r = t.telemetry in
  let spans = r.Telemetry.Recorder.spans in
  let some_r = Some r in
  (* ---- snapshot: everything a rollback must restore. The join loop
     below only writes the *scheduled* fragments' cache and degradation
     entries, so the snapshot records exactly those bindings instead of
     copying the whole cache — O(scheduled), not O(fragments) ---- *)
  let snap_cache =
    List.map
      (fun fid -> (fid, Hashtbl.find_opt t.cache fid))
      sched.changed_fragments
  in
  let snap_exe = t.exe in
  let snap_degraded =
    List.map
      (fun fid -> (fid, Hashtbl.mem t.degraded fid))
      sched.changed_fragments
  in
  let snap_tier =
    List.map
      (fun fid ->
        (fid, Hashtbl.find_opt t.tier_of fid, Hashtbl.mem t.promote_pending fid))
      sched.changed_fragments
  in
  let rollback err =
    List.iter
      (fun (fid, prev) ->
        match prev with
        | Some obj -> Hashtbl.replace t.cache fid obj
        | None -> Hashtbl.remove t.cache fid)
      snap_cache;
    t.exe <- snap_exe;
    List.iter
      (fun (fid, was) ->
        if was then Hashtbl.replace t.degraded fid ()
        else Hashtbl.remove t.degraded fid)
      snap_degraded;
    List.iter
      (fun (fid, tier, pending) ->
        (match tier with
        | Some tr -> Hashtbl.replace t.tier_of fid tr
        | None -> Hashtbl.remove t.tier_of fid);
        if pending then Hashtbl.replace t.promote_pending fid ()
        else Hashtbl.remove t.promote_pending fid)
      snap_tier;
    t.rollback_count <- t.rollback_count + 1;
    Telemetry.Recorder.count some_r "session.rebuild_rollbacks";
    (* probe changes are NOT cleared: the next refresh retries them *)
    Rolled_back err
  in
  let rebuild_sp =
    Telemetry.Span.enter spans ~cat:"session"
      ~args:
        [
          ("fragments", string_of_int (List.length sched.changed_fragments));
          ("probes", string_of_int (List.length sched.active));
        ]
      "rebuild"
  in
  Fun.protect ~finally:(fun () -> Telemetry.Span.exit spans rebuild_sp)
  @@ fun () ->
  let faults_before = Support.Fault.total_fired () in
  (* the user's patch logic instruments the temporary IR *)
  let patch_result =
    try
      Telemetry.Span.with_span spans ~cat:"session" "patch" (fun () ->
          List.iter (fun patch -> patch sched) t.patchers);
      None
    with
    | Build_error e -> Some e
    | e ->
      Some
        (mk_error
           ~probes:(List.map (fun p -> p.Instr.Probe.pid) sched.active)
           ~exn_:e Patch
           (Printf.sprintf "patch logic raised %s" (Printexc.to_string e)))
  in
  match patch_result with
  | Some err -> rollback err
  | None ->
  let source s =
    if SSet.mem s sched.changed_symbols then Ir.Modul.find sched.temp s else None
  in
  (* Fragment compiles are independent: the patch phase above was the
     last write to the shared temporary IR, and materialize only clones
     out of it. Each job runs materialize → verify → digest →
     (cache | store | optimize → codegen) on a pool domain with a forked
     recorder; results join below in fragment order, so spans, metrics,
     the fid cache and the recompile event are deterministic for any
     pool size. Jobs never raise — failures retry (bounded, virtual
     backoff), then degrade to the last-good or pristine object. *)
  let jclock = Telemetry.Clock.synchronized r.Telemetry.Recorder.clock in
  let compile_sp = Telemetry.Span.enter spans ~cat:"session" "compile" in
  let evictions_before = cache_evictions t.objects in
  let waits_before = shard_waits t.objects in
  let compile_fragment fid =
    let jr = Telemetry.Recorder.fork ~clock:jclock r in
    let jspans = jr.Telemetry.Recorder.spans in
    let fsp =
      Telemetry.Span.enter jspans ~cat:"session"
        ~args:[ ("fid", string_of_int fid) ]
        "fragment"
    in
    Fun.protect ~finally:(fun () -> Telemetry.Span.exit jspans fsp)
    @@ fun () ->
    let f = t.plan.Partition.fragments.(fid) in
    let probes =
      List.filter_map
        (fun (p : Instr.Probe.t) ->
          if Partition.SSet.mem p.Instr.Probe.target f.Partition.members then
            Some p.Instr.Probe.pid
          else None)
        sched.active
    in
    (* The tier this fragment compiles at on this rebuild. Reading
       [promote_pending] from a pool job is safe: the queue is only
       written by the user API and the serial join loop, never while
       jobs are in flight. *)
    let tier = tier_for t fid in
    (* One full attempt at producing this fragment's object from
       [produce_source]; raises on failure. Returns (object, served
       from cache/store?, modelled compile cost — 0 when served). *)
    let produce produce_source =
      let frag_module =
        Telemetry.Span.with_span jspans ~cat:"session" "materialize" (fun () ->
            Support.Fault.hit "session.materialize";
            Partition.materialize t.plan f ~source:produce_source ~base:t.base)
      in
      (* content address: the instrumented IR is the complete compiler
         input (with the fixed opt bound and the tier). Digested structurally (one visitor
         pass, Ir.Shash) — same equivalence as printing, without
         materializing the printed module. Digest runs before verify so
         a cache hit short-circuits the whole remaining walk: an entry
         is only added for a module that verified, so an equal digest
         means a structurally identical module that already verified *)
      let key =
        Telemetry.Span.with_span jspans ~cat:"session" "digest" (fun () ->
            let b = Buffer.create 4096 in
            (* the tier is part of the content address: a baseline
               object can never satisfy an optimized lookup (or vice
               versa) in the cache or the store *)
            Buffer.add_string b
              (Printf.sprintf "fid=%d;rounds=%d;tier=%d;" fid opt_rounds tier);
            Ir.Shash.add_module b frag_module;
            Digest.bytes (Buffer.to_bytes b))
      in
      let oc = t.objects in
      let remember obj =
        with_shard oc key (fun cs ->
            Support.Lru.add cs.cs_lru key (t.owner, obj))
      in
      let cached =
        try
          Support.Fault.hit "cache.get";
          with_shard oc key (fun cs -> Support.Lru.find cs.cs_lru key)
        with
        | Support.Fault.Injected _ | Support.Fault.Transient_fault _ ->
          (* a poisoned or faulting cache lookup degrades to a miss *)
          Telemetry.Recorder.count (Some jr) "session.cache_faults";
          None
      in
      match cached with
      | Some (owner, obj) ->
        (* unchanged fragment state: skip verify, the store round-trip
           and Opt.Pipeline entirely *)
        if owner <> t.owner then begin
          (* served an object another session produced *)
          Atomic.incr oc.oc_cross_hits;
          Telemetry.Recorder.count (Some jr) "session.cache_cross_hits"
        end;
        Telemetry.Span.add_arg fsp "cache" "hit";
        Telemetry.Recorder.count (Some jr) "session.opt_memo_hits";
        (obj, true, 0)
      | None -> (
        Telemetry.Span.with_span jspans ~cat:"session" "verify" (fun () ->
            match Ir.Verify.check_module frag_module with
            | [] -> ()
            | errors ->
              raise
                (Build_error
                   (mk_error ~fragment:fid ~probes Verify
                      (Printf.sprintf "fragment %d does not verify:\n%s" fid
                         (Ir.Verify.errors_to_string errors)))));
        (* persistent tier: a store hit skips optimize+codegen too *)
        let from_store =
          match t.store with
          | None -> None
          | Some st -> (
            match Support.Objstore.get st key with
            | None -> None
            | Some data -> (
              try Some (Marshal.from_string data 0 : Link.Objfile.t)
              with _ -> None))
        in
        match from_store with
        | Some obj ->
          Telemetry.Span.add_arg fsp "cache" "store-hit";
          Telemetry.Recorder.count (Some jr) "session.store_hits";
          remember obj;
          (obj, true, 0)
        | None ->
          (* tier 0 is the whole point of the baseline path: skip the
             pass pipeline entirely and run the single-pass backend.
             [cost] accumulates the modelled work either way, so the
             tier bench can compare per-fragment compile cost. *)
          let cost = ref 0 in
          if tier <> 0 then
            ignore
              (Opt.Pipeline.run_fragment ~recorder:jr ~cost
                 ~max_rounds:opt_rounds frag_module);
          let obj =
            Telemetry.Span.with_span jspans ~cat:"session" "codegen" (fun () ->
                Link.Objfile.of_module ~tier ~cost frag_module)
          in
          remember obj;
          (match t.store with
          | None -> ()
          | Some st -> Support.Objstore.put st key (Marshal.to_string obj []));
          (obj, false, !cost))
    in
    (* Bounded retries with virtual-clock backoff for transient faults;
       the cooperative watchdog (armed below) can cut any attempt short. *)
    let rec attempt n =
      try Stdlib.Ok (produce source) with
      | Support.Fault.Transient_fault _ as e when n < t.max_retries ->
        Telemetry.Recorder.count (Some jr) "session.fragment_retries";
        Support.Fault.virtual_sleep (backoff_delay n);
        Telemetry.Span.add_arg fsp "retries" (string_of_int (n + 1));
        ignore e;
        attempt (n + 1)
      | e -> Stdlib.Error (classify_fragment_exn ~fid ~probes e)
    in
    let result =
      Support.Fault.with_deadline t.job_timeout (fun () -> attempt 0)
    in
    match result with
    | Stdlib.Ok (obj, hit, cost) ->
      (fid, Stdlib.Ok (obj, hit, false, Some tier, cost), jr, fsp)
    | Stdlib.Error err -> (
      Telemetry.Span.add_arg fsp "degraded" "true";
      Telemetry.Recorder.count (Some jr) "session.fragment_faults";
      (* Degrade: last-good object if one exists (the fid cache is not
         touched until the join), else the pristine un-instrumented
         fragment — compiled with injection suppressed: the recovery
         path must not be sabotaged by the fault it recovers from. The
         last-good object keeps whatever tier it was compiled at
         ([None] = leave [tier_of] alone). *)
      match Hashtbl.find_opt t.cache fid with
      | Some last_good ->
        (fid, Stdlib.Ok (last_good, false, true, None, 0), jr, fsp)
      | None -> (
        match
          Support.Fault.with_suppressed (fun () ->
              try Stdlib.Ok (produce (fun _ -> None)) with e -> Stdlib.Error e)
        with
        | Stdlib.Ok (obj, hit, cost) ->
          (fid, Stdlib.Ok (obj, hit, true, Some tier, cost), jr, fsp)
        | Stdlib.Error _ ->
          (* no last-good and even the pristine object will not build:
             nothing consistent to serve — fatal, forces a rollback *)
          (fid, Stdlib.Error err, jr, fsp)))
  in
  let results = Support.Pool.map t.pool compile_fragment sched.changed_fragments in
  let fatal =
    List.find_map
      (fun (_, res, _, _) ->
        match res with Stdlib.Error e -> Some e | Stdlib.Ok _ -> None)
      results
  in
  let cache_hits = ref 0 in
  let degraded_now = ref [] in
  let tier0_now = ref 0 in
  let promoted_now = ref 0 in
  let tier0_cost_before = t.tier0_cost in
  let tier1_cost_before = t.tier1_cost in
  (* objects that differ from the previous link's input, by name —
     physical identity is exact here: an unchanged fragment is never
     scheduled, and a scheduled one either round-trips to the very same
     cached object (content hit / degraded last-good) or is new *)
  let changed_objs = ref [] in
  List.iter
    (fun (fid, res, jr, fsp) ->
      (match res with
      | Stdlib.Ok (obj, hit, degr, tier, cost) ->
        (match Hashtbl.find_opt t.cache fid with
        | Some prev when prev == obj -> ()
        | _ -> changed_objs := obj.Link.Objfile.o_name :: !changed_objs);
        Hashtbl.replace t.cache fid obj;
        (* tier bookkeeping: record the tier the object now serving this
           fragment was compiled at, count fresh compiles per tier, and
           retire the promotion once its tier-1 object is in *)
        (match tier with
        | Some tr ->
          (if t.tiered && tr = 1 && Hashtbl.mem t.promote_pending fid then begin
             Hashtbl.remove t.promote_pending fid;
             incr promoted_now;
             t.promotion_count <- t.promotion_count + 1
           end);
          Hashtbl.replace t.tier_of fid tr;
          if not hit then begin
            if tr = 0 then begin
              incr tier0_now;
              t.tier0_compiles <- t.tier0_compiles + 1;
              t.tier0_cost <- t.tier0_cost + cost
            end
            else begin
              t.tier1_compiles <- t.tier1_compiles + 1;
              t.tier1_cost <- t.tier1_cost + cost
            end
          end
        | None -> ());
        if hit then incr cache_hits;
        if degr then begin
          degraded_now := fid :: !degraded_now;
          if not (Hashtbl.mem t.degraded fid) then t.degrade_count <- t.degrade_count + 1;
          Hashtbl.replace t.degraded fid ()
        end
        else if Hashtbl.mem t.degraded fid then begin
          Hashtbl.remove t.degraded fid;
          Telemetry.Recorder.count some_r "session.fragments_healed"
        end
      | Stdlib.Error _ -> ());
      Telemetry.Recorder.merge ~into:r ~parent:compile_sp jr;
      Telemetry.Recorder.observe (Some r) "session.fragment_ms"
        (1000. *. Telemetry.Span.duration fsp))
    results;
  let degraded_now = List.rev !degraded_now in
  Telemetry.Span.exit spans compile_sp;
  match fatal with
  | Some err -> rollback err
  | None -> (
  (* link all cached fragments + the runtime; transient faults retry
     with the same bounded backoff, anything persistent rolls back *)
  let link_sp = Telemetry.Span.enter spans ~cat:"session" "link" in
  let compactions_before =
    (Link.Incremental.stats t.linker).Link.Incremental.st_compactions
  in
  let objs =
    t.runtime
    :: (Array.to_list t.plan.Partition.fragments
       |> List.filter_map (fun (f : Partition.fragment) ->
              Hashtbl.find_opt t.cache f.Partition.fid))
  in
  let rec link_attempt n =
    try
      Stdlib.Ok
        (Link.Incremental.relink ~incremental:t.incr_link ~host:t.host t.linker
           ~changed:!changed_objs objs)
    with
    | Support.Fault.Transient_fault _ when n < t.max_retries ->
      Telemetry.Recorder.count some_r "session.link_retries";
      Support.Fault.virtual_sleep (backoff_delay n);
      link_attempt (n + 1)
    | Build_error e -> Stdlib.Error { e with err_phase = Link }
    | e ->
      let msg =
        match Link.Linker.link_error_message e with
        | Some m -> m
        | None -> Printf.sprintf "link raised %s" (Printexc.to_string e)
      in
      Stdlib.Error
        (mk_error
           ~probes:(List.map (fun p -> p.Instr.Probe.pid) sched.active)
           ~exn_:e Link msg)
  in
  let link_result = link_attempt 0 in
  Telemetry.Span.exit spans link_sp;
  match link_result with
  | Stdlib.Error err -> rollback err
  | Stdlib.Ok exe ->
    t.exe <- Some exe;
    Instr.Manager.clear_changes t.manager;
    Telemetry.Recorder.count some_r "session.rebuilds";
    Telemetry.Recorder.count some_r
      ~by:(List.length sched.changed_fragments)
      "session.fragments_scheduled";
    Telemetry.Recorder.count some_r
      ~by:(List.length sched.changed_fragments - !cache_hits)
      "session.fragments_recompiled";
    Telemetry.Recorder.count some_r ~by:!cache_hits "session.fragment_cache_hits";
    (* in-memory cache hits are counted into the per-job recorders as
       they happen; touch the counter here so it is present (possibly 0)
       in every report, like the other rebuild counters *)
    Telemetry.Recorder.count some_r ~by:0 "session.opt_memo_hits";
    Telemetry.Recorder.count some_r
      ~by:(cache_evictions t.objects - evictions_before)
      "session.fragment_cache_evictions";
    Telemetry.Recorder.count some_r
      ~by:(shard_waits t.objects - waits_before)
      "session.cache_shard_waits";
    (let ls = Link.Incremental.last t.linker in
     Telemetry.Recorder.count some_r
       (if ls.Link.Incremental.ls_incremental then "link.relinks_incremental"
        else "link.relinks_full");
     Telemetry.Recorder.count some_r
       ~by:ls.Link.Incremental.ls_symbols_patched "link.symbols_patched";
     Telemetry.Recorder.count some_r
       ~by:ls.Link.Incremental.ls_relocs_patched "link.relocs_patched");
    Telemetry.Recorder.count some_r
      ~by:
        ((Link.Incremental.stats t.linker).Link.Incremental.st_compactions
        - compactions_before)
      "link.slab_compactions";
    Telemetry.Recorder.count some_r ~by:!tier0_now "session.tier0_compiles";
    Telemetry.Recorder.count some_r ~by:!promoted_now "session.tier_promotions";
    Telemetry.Recorder.count some_r
      ~by:(t.tier0_cost - tier0_cost_before)
      "session.tier0_cost";
    Telemetry.Recorder.count some_r
      ~by:(t.tier1_cost - tier1_cost_before)
      "session.tier1_cost";
    Telemetry.Recorder.count some_r
      ~by:(List.length sched.active)
      "session.probes_applied";
    Telemetry.Recorder.count some_r
      ~by:(List.length degraded_now)
      "session.fragments_degraded";
    Telemetry.Recorder.count some_r
      ~by:(Support.Fault.total_fired () - faults_before)
      "session.faults_injected";
    let ls = Link.Incremental.last t.linker in
    let event =
      {
        ev_fragments = sched.changed_fragments;
        ev_cache_hits = !cache_hits;
        ev_probes_applied = List.length sched.active;
        ev_compile_time = Telemetry.Span.duration compile_sp;
        ev_link_time = Telemetry.Span.duration link_sp;
        ev_per_fragment =
          List.map
            (fun (fid, _, _, fsp) -> (fid, Telemetry.Span.duration fsp))
            results;
        ev_link_incremental = ls.Link.Incremental.ls_incremental;
        ev_symbols_patched = ls.Link.Incremental.ls_symbols_patched;
      }
    in
    t.last_event <- Some event;
    match degraded_now with [] -> Ok | fids -> Degraded fids)

(** Initial build, transactional: schedule every fragment and build the
    executable, reporting the outcome instead of raising. *)
let try_build t =
  Telemetry.Recorder.with_span t.telemetry ~cat:"session" "build" (fun () ->
      let sched =
        Telemetry.Recorder.with_span t.telemetry ~cat:"session" "schedule"
          (fun () -> schedule ~initial:true t)
      in
      rebuild sched)

(** Initial build: schedule every fragment and build the executable.
    @raise Build_error when the build rolled back. *)
let build t =
  match try_build t with
  | Ok | Degraded _ -> Option.get t.last_event
  | Rolled_back err -> raise (Build_error err)

(** Incremental transactional rebuild after probe changes (or pending
    degraded fragments to re-heal); [None] when nothing to do. *)
let try_refresh ?(backprop = true) t =
  if
    Instr.Manager.has_changes t.manager
    || Hashtbl.length t.degraded > 0
    || Hashtbl.length t.promote_pending > 0
  then
    Telemetry.Recorder.with_span t.telemetry ~cat:"session" "refresh" (fun () ->
        let sched =
          Telemetry.Recorder.with_span t.telemetry ~cat:"session" "schedule"
            (fun () -> schedule ~backprop t)
        in
        Some (rebuild sched))
  else None

(** Incremental rebuild after probe changes; no-op when nothing changed.
    @raise Build_error when the rebuild rolled back. *)
let refresh ?(backprop = true) t =
  match try_refresh ~backprop t with
  | None -> None
  | Some (Ok | Degraded _) -> t.last_event
  | Some (Rolled_back err) -> raise (Build_error err)

(** Batched multi-toggle refresh: flip a whole probe set (the mutation
    campaign's "disarm previous mutant, arm next one" — or arm a K-mutant
    set at once) as ONE dirty-set update and ONE schedule pass. With the
    incremental scheduler this is O(changed): K toggles visit the
    fragments those K probes live in (the [session.schedule_visited]
    counter records the walk's extent), never K separate refreshes and
    never an O(program) scan. Returns the transactional outcome plus the
    recompile event when a rebuild happened and was not rolled back. *)
let refresh_toggles ?(backprop = true) t toggles =
  Instr.Manager.toggle_many t.manager toggles;
  match try_refresh ~backprop t with
  | None -> None
  | Some outcome ->
    let ev =
      match outcome with
      | Ok | Degraded _ -> t.last_event
      | Rolled_back _ -> None
    in
    Some (outcome, ev)

let executable t =
  match t.exe with
  | Some exe -> exe
  | None ->
    raise
      (Build_error
         (mk_error Lifecycle "Odin session not built yet — call Session.build"))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let fragment_sizes t =
  Array.to_list t.plan.Partition.fragments
  |> List.map (fun (f : Partition.fragment) ->
         (f.Partition.fid, Partition.SSet.cardinal f.Partition.members))

(** Fragments currently serving a stale/pristine object, sorted. *)
let degraded_fragments t =
  List.sort compare (Hashtbl.fold (fun fid () acc -> fid :: acc) t.degraded [])

(** Rebuilds rolled back to their snapshot so far. *)
let rollbacks t = t.rollback_count

(** Total fragment degradations over the session's lifetime. *)
let degrade_total t = t.degrade_count

(** Persistent-store statistics, when [cache_dir] was given. *)
let store_stats t = Option.map Support.Objstore.stats t.store
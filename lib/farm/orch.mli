(** The orchestration core of the fuzzing farm, shared by the campaign
    loop ({!Loop}) and both of its executors (domains and processes):
    everything that decides campaign {e results} — slot execution, how
    a session takes the campaign's probe state, barrier merges, prune
    votes, corpus broadcast, adaptive sync intervals, checkpoints — so
    bit-identity across [--farm-mode domains|procs] is structural
    rather than tested-for. *)

type config = {
  fc_workers : int;
  fc_execs : int;  (** mutated-execution budget, farm-wide (seeds excluded) *)
  fc_sync_interval : int;  (** executions per sync round, farm-wide *)
  fc_seed : int;
  fc_prune_quorum : int;
      (** fired-execution votes required to prune a probe globally;
          <= 0 disables pruning. 1 = Untracer policy, globally. *)
  fc_cache_limit : int option;  (** store GC size bound (bytes), per barrier *)
  fc_adaptive_sync : bool;
      (** scale the sync interval up on quiet barriers, reset on new
          coverage (off by default: a fixed interval is what the
          worker-count-invariance tests pin down) *)
}

val default_config : config

(** Cumulative cost attribution for one probe site across the whole
    campaign. *)
type probe_cost = {
  pc_pid : int;
  pc_toggles : int;  (** 1 once pruned: its removal, a farm's only toggle *)
  pc_execs_armed : int;  (** merged executions while globally armed *)
  pc_hits : int;  (** counter increments executed *)
  pc_cycles : int;  (** VM cycles spent in the increment sequence *)
}

type stats = {
  fs_workers : int;
  fs_execs : int;  (** executions merged at barriers (seeds included) *)
  fs_total_cycles : int;
  fs_sync_rounds : int;
  fs_offered : int;  (** inputs offered at barriers *)
  fs_exchanged : int;  (** accepted and broadcast to every shard *)
  fs_duplicates : int;
  fs_stale : int;
  fs_coverage : int list;  (** globally covered probe ids, ascending *)
  fs_total_probes : int;
  fs_pruned : int list;  (** globally pruned probe ids, ascending *)
  fs_corpus : string list;  (** global corpus inputs, acceptance order *)
  fs_cross_hits : int;  (** object-cache hits on another worker's entry *)
  fs_recompiles : int;  (** barrier refreshes across all workers *)
  fs_skipped : int;
  fs_crashes : int;
  fs_dead : (int * string) list;  (** dead workers (id, reason), id order *)
  fs_gc_evicted : int;  (** store entries evicted at barriers *)
  fs_store : Support.Objstore.stats option;
  fs_probe_cost : probe_cost list;  (** every probe id, ascending *)
}

val dedup_rate : stats -> float

(** One global-corpus entry, as broadcast to every shard. *)
type centry = {
  ce_input : string;
  ce_energy : int;
  ce_cycles : int;
  ce_fresh : int;  (** probes freshly covered when accepted *)
}

(** Quiet barriers (no accepted inputs) before the adaptive interval
    doubles, and the cap on the scale factor. *)
val adaptive_quiet_rounds : int

val adaptive_max_scale : int

type t = {
  o_seed : int;
  o_quorum : int;
  o_adaptive : bool;
  o_interval_base : int;
  o_n_probes : int;
  o_sync : Csync.t;
  o_votes : Instr.Votes.t;
  o_pruned : (int, unit) Hashtbl.t;
  o_hits_cycles : (int, int ref * int ref) Hashtbl.t;
  o_execs_armed : (int, int) Hashtbl.t;
  mutable o_corpus : centry list;  (** accepted entries, newest first *)
  mutable o_execs : int;
  mutable o_cycles : int;
  mutable o_rounds : int;  (** barriers merged (this run + checkpoint) *)
  mutable o_interval : int;  (** current sync interval (adaptive) *)
  mutable o_quiet : int;  (** consecutive accept-free barriers *)
  mutable o_gc_evicted : int;
  mutable o_skipped : int;  (** campaign-cumulative: restored from a *)
  mutable o_crashes : int;  (** checkpoint, then advanced by the executor *)
  mutable o_recompiles : int;
  mutable o_restarts : int;
}

val create : n_probes:int -> config -> t
val pruned_list : t -> int list

(** Accepted corpus entries, acceptance order. *)
val corpus_entries : t -> centry list

(** Rebuild a shard as an exact replica of the global corpus. *)
val replay_corpus : Fuzzer.Corpus.t -> centry list -> unit

(** Run one execution slot against a session's current executable.
    Deterministic in the slot index alone (given the round-start shard
    state): which worker — domain or process — runs it is irrelevant
    to the result. Slots below the seed count replay the seeds. *)
val exec_slot :
  seed:int ->
  entry:string ->
  host:string list ->
  seeds:string list ->
  session:Odin.Session.t ->
  total_probes:int ->
  corpus:Fuzzer.Corpus.t ->
  int ->
  Csync.item

(** Slots a worker ran without producing an item. *)
type losses = { mutable skipped : int; mutable crashes : int }

(** Run one worker's share of a round through an {!exec_slot} closure,
    returning the items in slot order. Transient faults (skipped) and
    guest traps (crashes) are counted into the {!losses} as they
    happen; any other exception propagates — the lane died, and keeps
    the counts it reached. [each n] runs after the [n]th slot. *)
val run_slots :
  ?each:(int -> unit) -> losses -> (int -> Csync.item) -> int list -> Csync.item list

(** Bring a worker's session to the campaign's probe state: remove the
    [pruned] probes its manager still holds (the manager forgets what
    it removes, so a cumulative set applies only what is new), and
    refresh if that changed something or a fragment is degraded.
    Returns whether a refresh landed. The one path for the domains
    barrier and resume and for a worker process's [Assign]. *)
val apply_state : Odin.Session.t -> pruned:int list -> bool

(** Merge one barrier's worth of items (sorted by slot index, dead
    lanes excluded). Returns the accepted entries (broadcast order) and
    the probes newly saturated to the prune quorum; advances the
    adaptive interval when enabled. *)
val merge_round : t -> Csync.item list -> centry list * int list

(** Bumped whenever the checkpoint payload changes shape; {!Wire}
    rejects mismatches cleanly. *)
val ckpt_version : int

(** A complete, self-contained snapshot of a campaign at a sync
    barrier. [ck_next] is the mutation-budget cursor (slot RNGs are
    pure functions of [(seed, slot)], so no generator state is
    stored); [ck_round] the last completed round. *)
type ckpt = {
  ck_version : int;
  ck_digest : string;  (** target module digest — resume refuses a mismatch *)
  ck_seed : int;
  ck_workers : int;
  ck_interval_base : int;
  ck_n_probes : int;
  ck_round : int;
  ck_next : int;
  ck_bitmap : string;
  ck_seen : string list;
  ck_offered : int;
  ck_accepted : int;
  ck_duplicates : int;
  ck_stale : int;
  ck_votes : (int * int) list;
  ck_pruned : int list;
  ck_corpus : centry list;  (** acceptance order *)
  ck_execs : int;
  ck_cycles : int;
  ck_rounds : int;
  ck_execs_armed : (int * int) list;
  ck_probe_cost : (int * int * int) list;  (** (pid, hits, cycles) *)
  ck_interval : int;
  ck_quiet : int;
  ck_skipped : int;
  ck_crashes : int;
  ck_recompiles : int;
  ck_restarts : int;
  ck_gc_evicted : int;
}

(** Snapshot the orchestrator after barrier [round], with the budget
    cursor at [next]. *)
val snapshot : t -> digest:string -> workers:int -> round:int -> next:int -> ckpt

(** Rebuild an orchestrator from a checkpoint; [cfg] supplies the knobs
    a checkpoint does not pin (quorum, adaptivity, GC bounds). *)
val restore : config -> ckpt -> t

(** Digest pinning a module's identity for checkpoints and the wire
    Init frame: the printed IR's MD5. *)
val module_digest : Ir.Modul.t -> string

val record_sync_event :
  Telemetry.Journal.t -> t -> round:int -> merged:int -> accepted:int -> pruned:int -> unit

(** One campaign-counter snapshot: farm./session./link. counters
    aggregated across the recorders, plus a [store.quarantined] row
    when a quarantine count is supplied. *)
val record_counters_event :
  Telemetry.Journal.t ->
  round:int ->
  quarantined:int option ->
  Telemetry.Recorder.t list ->
  unit

val record_probe_cost_events : Telemetry.Journal.t -> probe_cost list -> unit

val record_done_event :
  Telemetry.Journal.t -> t -> workers:int -> cross_hits:int -> unit

(** Assemble the public stats record from the orchestrator's state
    plus what only the executor knows. *)
val mk_stats :
  t ->
  workers:int ->
  cross_hits:int ->
  dead:(int * string) list ->
  store:Support.Objstore.stats option ->
  stats

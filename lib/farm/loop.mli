(** The fuzzing farm's campaign loop: one body, run by two executors.

    A farm campaign is the same sequence whatever runs its workers, and
    this module is that sequence: open the journal, validate a resume
    checkpoint against the target (digest and seed before boot, probe
    universe after), enter the [farm] span, boot the workers inside the
    [spawn] span, create the orchestrator ({!Orch}) or restore it from
    the checkpoint, run round 0 over the seed inputs, spend the
    mutation budget in sync-interval rounds, and finish with the
    per-probe cost roll-up, the [farm.done] journal event and the
    stats.

    Each round's slots are dealt round-robin over the live workers and
    closed by one barrier (span [sync]): the items are merged in slot
    order ({!Orch.merge_round}), the executor applies the barrier's
    effects, the store is GC'd to [fc_cache_limit], the [farm.*]
    counters, the interval gauge and the [farm.sync] and [counters]
    journal events are recorded, a checkpoint is published, and the
    journal is flushed. A round that lost its last worker has no
    barrier: nothing is merged, counted or published for it, so the
    last checkpoint stays at the last round that merged.

    An {!executor} supplies only what differs between substrates: who
    runs a round's shares ({!Farm.run}: in-process workers on the
    domain pool, checking in at the barrier door; {!Proc.run}:
    stateless worker processes under {!Supervise}), how barrier effects
    reach the workers (shard replay plus a serial refresh in worker
    order, or nothing because the next [Assign] frame carries them),
    and its recorders, store handle and dead list. Executors advance
    the orchestrator's skipped/crashes/recompiles/restarts counts as
    their workers report. *)

type executor = {
  n_probes : int;  (** the probe universe the workers built *)
  live : unit -> int list;  (** ids of the workers still in the farm, ascending *)
  round : Orch.t -> round:int -> (int * int list) list -> Csync.item list;
      (** run each [(worker id, slots)] share of a round and return the
          items of the shares that count, in any order; a worker lost
          in the round is gone from [live] when it returns *)
  apply : Orch.t -> Orch.centry list -> int list -> unit;
      (** bring the live workers to a barrier's state: the accepted
          corpus entries and the newly pruned probes (on resume: the
          checkpoint's whole corpus and pruned set) *)
  recorders : Telemetry.Recorder.t list;
      (** summed into each barrier's [counters] journal event *)
  store : Support.Objstore.t option;
      (** the persistent-store handle barrier GC and the stats use *)
  dead : unit -> (int * string) list;  (** [(id, reason)], id order *)
  join : Telemetry.Span.span -> int;
      (** at the end: fold worker telemetry in under the [farm] span;
          returns the cross-worker object-cache hits *)
  close : unit -> unit;  (** release the workers; runs however the loop exits *)
}

(** Run a campaign over [base]. [mode] names the substrate in the [farm]
    span and in resume errors; [spawn] boots the workers on the farm's
    recorder and returns their executor. [journal]/[journal_path],
    [checkpoint_path] and [resume] are {!Farm.run}'s. Raises
    [Invalid_argument] when [resume] is for another target, seed or
    probe universe. *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  ?journal:Telemetry.Journal.t ->
  ?journal_path:string ->
  ?checkpoint_path:string ->
  ?resume:Orch.ckpt ->
  mode:string ->
  seeds:string list ->
  Orch.config ->
  Ir.Modul.t ->
  (Telemetry.Recorder.t -> executor) ->
  Orch.stats

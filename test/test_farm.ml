(* The fuzzing farm: worker-count invariance, corpus-sync dedup, global
   prune votes, fault-tolerant barriers, the shared object cache and the
   store GC.

   The headline contract is the determinism claim from farm.mli: for a
   fixed (seed, sync-interval) the farm's logical results — global
   coverage set, pruned-probe set, corpus, even total cycles — are
   bit-identical across --workers 1/2/4. Worker counts only decide who
   computes which execution slot, never what the slot computes. *)

module Pool = Support.Pool
module Fault = Support.Fault
module Objstore = Support.Objstore
module Csync = Farm.Csync

let tiny = Workloads.Profile.tiny
let entry = Fuzzer.Campaign.entry
let seeds = Workloads.Generate.seed_inputs ~count:2 tiny

let run_farm ?(workers = 1) ?(execs = 60) ?(sync = 20) ?(quorum = 1)
    ?cache_dir ?cache_limit ?incremental_link ?incremental_sched
    ?checkpoint_path ?(pool = Pool.serial) () =
  let m = Workloads.Generate.compile tiny in
  let cfg =
    {
      Farm.default_config with
      Farm.fc_workers = workers;
      fc_execs = execs;
      fc_sync_interval = sync;
      fc_prune_quorum = quorum;
      fc_cache_limit = cache_limit;
    }
  in
  Farm.run ~pool ?cache_dir ?incremental_link ?incremental_sched
    ?checkpoint_path ~entry ~seeds cfg m

(* ---------------- worker-count invariance ------------------------------ *)

let logical st =
  ( st.Farm.fs_coverage,
    st.Farm.fs_pruned,
    st.Farm.fs_corpus,
    st.Farm.fs_execs,
    st.Farm.fs_total_cycles )

let test_invariance_across_workers () =
  let sts = List.map (fun w -> run_farm ~workers:w ()) [ 1; 2; 4 ] in
  let base = List.hd sts in
  List.iteri
    (fun i st ->
      let w = List.nth [ 1; 2; 4 ] i in
      Alcotest.(check (list int))
        (Printf.sprintf "coverage identical (w=%d)" w)
        base.Farm.fs_coverage st.Farm.fs_coverage;
      Alcotest.(check (list int))
        (Printf.sprintf "pruned identical (w=%d)" w)
        base.Farm.fs_pruned st.Farm.fs_pruned;
      Alcotest.(check (list string))
        (Printf.sprintf "corpus identical (w=%d)" w)
        base.Farm.fs_corpus st.Farm.fs_corpus;
      Alcotest.(check int)
        (Printf.sprintf "execs identical (w=%d)" w)
        base.Farm.fs_execs st.Farm.fs_execs;
      Alcotest.(check int)
        (Printf.sprintf "cycles identical (w=%d)" w)
        base.Farm.fs_total_cycles st.Farm.fs_total_cycles)
    sts;
  Alcotest.(check bool) "found coverage" true (base.Farm.fs_coverage <> []);
  Alcotest.(check bool) "pruned something" true (base.Farm.fs_pruned <> []);
  (* multi-worker runs share the object cache: workers 1..N-1 build
     against worker 0's compiled fragments *)
  List.iteri
    (fun i st ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "cross hits (w=%d)" (List.nth [ 1; 2; 4 ] i))
          true
          (st.Farm.fs_cross_hits > 0))
    sts;
  (* the full-link and full-walk reference paths are invisible to the
     campaign *)
  let reference =
    run_farm ~workers:2 ~incremental_link:false ~incremental_sched:false ()
  in
  Alcotest.(check bool) "full link + full walk identical" true
    (logical reference = logical base)

let test_invariance_no_prune () =
  let a = run_farm ~workers:1 ~quorum:0 () in
  let b = run_farm ~workers:4 ~quorum:0 () in
  Alcotest.(check bool) "nothing pruned" true (a.Farm.fs_pruned = []);
  Alcotest.(check (list int)) "coverage identical" a.Farm.fs_coverage b.Farm.fs_coverage;
  Alcotest.(check int) "cycles identical" a.Farm.fs_total_cycles b.Farm.fs_total_cycles

let test_repeat_determinism () =
  let a = run_farm ~workers:2 () and b = run_farm ~workers:2 () in
  Alcotest.(check bool) "two identical runs" true (logical a = logical b)

let test_invariance_on_domains () =
  (* same contract on a real domain pool: the schedule, not the pool,
     decides the results *)
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let a = run_farm ~workers:1 ~execs:40 ~sync:20 () in
  let b = run_farm ~workers:4 ~execs:40 ~sync:20 ~pool () in
  Alcotest.(check (list int)) "coverage identical" a.Farm.fs_coverage b.Farm.fs_coverage;
  Alcotest.(check (list int)) "pruned identical" a.Farm.fs_pruned b.Farm.fs_pruned;
  Alcotest.(check (list string)) "corpus identical" a.Farm.fs_corpus b.Farm.fs_corpus

(* ---------------- corpus-sync protocol --------------------------------- *)

let item ?(fns = []) ~idx ~input ~fired () =
  {
    Csync.it_index = idx;
    it_input = input;
    it_cycles = 100;
    it_fired = fired;
    it_fns = fns;
    it_probe_cost = [];
  }

let test_csync_dedup () =
  let t = Csync.create ~n_probes:16 in
  let accepted =
    Csync.merge t
      [
        item ~idx:0 ~input:"aaa" ~fired:[ 1; 2 ] ();
        (* byte-identical to slot 0: dropped *)
        item ~idx:1 ~input:"aaa" ~fired:[ 3 ] ();
        (* novel bytes, no new coverage: stale *)
        item ~idx:2 ~input:"bbb" ~fired:[ 2 ] ();
        item ~idx:3 ~input:"ccc" ~fired:[ 2; 5 ] ();
      ]
  in
  Alcotest.(check int) "offered" 4 t.Csync.offered;
  Alcotest.(check int) "duplicates" 1 t.Csync.duplicates;
  Alcotest.(check int) "stale" 1 t.Csync.stale;
  Alcotest.(check int) "accepted" 2 t.Csync.accepted;
  Alcotest.(check (list (pair string int)))
    "accepted inputs with fresh counts"
    [ ("aaa", 2); ("ccc", 1) ]
    (List.map (fun (it, fresh) -> (it.Csync.it_input, fresh)) accepted);
  Alcotest.(check (list int)) "bitmap" [ 1; 2; 5 ] (Csync.covered_list t);
  Alcotest.(check int) "count" 3 (Csync.covered_count t)

let test_csync_dedup_across_rounds () =
  let t = Csync.create ~n_probes:8 in
  ignore (Csync.merge t [ item ~idx:0 ~input:"x" ~fired:[ 0 ] () ]);
  ignore (Csync.merge t [ item ~idx:1 ~input:"x" ~fired:[ 1 ] () ]);
  Alcotest.(check int) "duplicate in a later round" 1 t.Csync.duplicates;
  (* the duplicate's coverage is NOT merged: dedup happens first *)
  Alcotest.(check (list int)) "bitmap" [ 0 ] (Csync.covered_list t);
  Alcotest.(check bool) "rate" true (Csync.dedup_rate t = 50.)

let test_csync_bounds () =
  let t = Csync.create ~n_probes:4 in
  ignore (Csync.merge t [ item ~idx:0 ~input:"x" ~fired:[ -1; 2; 99 ] () ]);
  (* out-of-range pids are ignored, in-range ones land *)
  Alcotest.(check (list int)) "bitmap" [ 2 ] (Csync.covered_list t)

(* ---------------- global prune votes ----------------------------------- *)

let test_votes () =
  let v = Instr.Votes.create () in
  Instr.Votes.record v ~pid:3;
  Instr.Votes.record v ~pid:3;
  Instr.Votes.record v ~pid:7;
  Alcotest.(check int) "count" 2 (Instr.Votes.count v 3);
  Alcotest.(check int) "distinct" 2 (Instr.Votes.distinct v);
  Alcotest.(check (list int))
    "quorum 1" [ 3; 7 ]
    (Instr.Votes.saturated v ~quorum:1 ~already:(fun _ -> false));
  Alcotest.(check (list int))
    "quorum 2" [ 3 ]
    (Instr.Votes.saturated v ~quorum:2 ~already:(fun _ -> false));
  Alcotest.(check (list int))
    "already pruned excluded" [ 7 ]
    (Instr.Votes.saturated v ~quorum:1 ~already:(fun pid -> pid = 3));
  Alcotest.(check (list int))
    "quorum 0 disables" []
    (Instr.Votes.saturated v ~quorum:0 ~already:(fun _ -> false));
  let w = Instr.Votes.create () in
  Instr.Votes.record w ~pid:7;
  Instr.Votes.record w ~pid:9;
  Instr.Votes.merge ~into:v w;
  Alcotest.(check int) "merged tally" 2 (Instr.Votes.count v 7);
  Alcotest.(check int) "merged distinct" 3 (Instr.Votes.distinct v);
  (* entries/restore round-trip: the checkpoint path *)
  let v' = Instr.Votes.restore (Instr.Votes.entries v) in
  Alcotest.(check (list (pair int int)))
    "restore round-trips" (Instr.Votes.entries v) (Instr.Votes.entries v')

(* ---------------- probe state ----------------------------------------- *)

(* Workers keep no pid table: apply_state finds pruned probes through
   the session's manager, which forgets what it removes, so the
   cumulative pruned set an Assign carries applies only what is new. *)
let test_apply_state_takes_only_new () =
  let telemetry = Telemetry.Recorder.create () in
  let m = Workloads.Generate.compile tiny in
  let s =
    Odin.Session.create ~keep:[ entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~host:Workloads.Generate.host_functions ~tiered:false ~telemetry m
  in
  ignore (Odin.Cov.setup s);
  ignore (Odin.Session.build s);
  let manager = s.Odin.Session.manager in
  let pruned =
    match Instr.Manager.to_list manager with
    | p :: q :: _ -> [ p.Instr.Probe.pid; q.Instr.Probe.pid ]
    | _ -> Alcotest.fail "fewer than two probes"
  in
  let rebuilds () =
    List.fold_left
      (fun acc c ->
        if Telemetry.Metrics.counter_name c = "session.rebuilds" then
          acc + Telemetry.Metrics.value c
        else acc)
      0
      (Telemetry.Metrics.counters telemetry.Telemetry.Recorder.metrics)
  in
  let built = rebuilds () in
  Alcotest.(check bool) "first application refreshes" true
    (Farm.Orch.apply_state s ~pruned);
  Alcotest.(check int) "one rebuild" (built + 1) (rebuilds ());
  List.iter
    (fun pid ->
      Alcotest.(check bool) (Printf.sprintf "probe %d removed" pid) true
        (Instr.Manager.get manager pid = None))
    pruned;
  Alcotest.(check bool) "same cumulative set: no refresh" false
    (Farm.Orch.apply_state s ~pruned);
  Alcotest.(check int) "no further rebuild" (built + 1) (rebuilds ())

(* ---------------- adaptive sync intervals ------------------------------ *)

let test_adaptive_interval () =
  let cfg =
    {
      Farm.default_config with
      Farm.fc_sync_interval = 10;
      fc_adaptive_sync = true;
      fc_prune_quorum = 0;
    }
  in
  let o = Farm.Orch.create ~n_probes:4 cfg in
  let idx = ref 0 in
  let mk ~fired () =
    incr idx;
    {
      Csync.it_index = !idx;
      it_input = Printf.sprintf "input-%d" !idx;
      it_cycles = 5;
      it_fired = fired;
      it_fns = [];
      it_probe_cost = [];
    }
  in
  let quiet () = ignore (Farm.Orch.merge_round o [ mk ~fired:[] () ]) in
  let interval () = o.Farm.Orch.o_interval in
  Alcotest.(check int) "starts at base" 10 (interval ());
  quiet ();
  quiet ();
  Alcotest.(check int) "two quiet barriers: unchanged" 10 (interval ());
  quiet ();
  Alcotest.(check int) "third quiet barrier doubles" 20 (interval ());
  for _ = 1 to 6 do quiet () done;
  Alcotest.(check int) "keeps doubling" 80 (interval ());
  for _ = 1 to 30 do quiet () done;
  Alcotest.(check int) "capped at 8x base" 80 (interval ());
  (* fresh coverage resets to the base interval *)
  ignore (Farm.Orch.merge_round o [ mk ~fired:[ 2 ] () ]);
  Alcotest.(check int) "accept resets" 10 (interval ());
  (* disabled by default: quiet barriers never move the interval *)
  let o' =
    Farm.Orch.create ~n_probes:4
      { cfg with Farm.fc_adaptive_sync = false }
  in
  for _ = 1 to 9 do ignore (Farm.Orch.merge_round o' [ mk ~fired:[] () ]) done;
  Alcotest.(check int) "fixed when disabled" 10 o'.Farm.Orch.o_interval

let test_adaptive_farm_end_to_end () =
  (* a farm with adaptive sync on a target that plateaus runs fewer,
     longer rounds; the fixed-interval run pins the historical count *)
  let m = Workloads.Generate.compile tiny in
  let mk adaptive =
    let cfg =
      {
        Farm.default_config with
        Farm.fc_workers = 2;
        fc_execs = 200;
        fc_sync_interval = 10;
        fc_adaptive_sync = adaptive;
      }
    in
    Farm.run ~pool:Pool.serial ~entry ~seeds cfg m
  in
  let fixed = mk false and adaptive = mk true in
  Alcotest.(check bool) "fewer rounds when adaptive" true
    (adaptive.Farm.fs_sync_rounds < fixed.Farm.fs_sync_rounds);
  Alcotest.(check (list int)) "coverage unchanged by pacing"
    fixed.Farm.fs_coverage adaptive.Farm.fs_coverage

(* ---------------- AFL-style energy ------------------------------------- *)

let test_seed_energy () =
  let e ~cycles ~fns =
    Fuzzer.Campaign.seed_energy ~avg_cycles:1000 ~cycles ~fn_cycles:fns
  in
  let fast = e ~cycles:200 ~fns:[ ("f", 100); ("g", 100) ] in
  let slow = e ~cycles:5000 ~fns:[ ("f", 100); ("g", 100) ] in
  Alcotest.(check bool) "fast beats slow" true (fast > slow);
  let narrow = e ~cycles:1000 ~fns:[ ("f", 1000) ] in
  let broad =
    e ~cycles:1000 ~fns:[ ("f", 250); ("g", 250); ("h", 250); ("i", 250) ]
  in
  Alcotest.(check bool) "breadth beats concentration" true (broad > narrow);
  Alcotest.(check bool) "positive floor" true
    (Fuzzer.Campaign.seed_energy ~avg_cycles:0 ~cycles:0 ~fn_cycles:[] >= 1)

let test_energy_drives_pick () =
  let c = Fuzzer.Corpus.create () in
  Fuzzer.Corpus.add c ~energy:1 ~data:"cold" ~exec_cycles:100 ~new_blocks:1 ();
  Fuzzer.Corpus.add c ~energy:10_000 ~data:"hot" ~exec_cycles:100 ~new_blocks:1 ();
  let rng = Support.Rng.create 7 in
  let hot = ref 0 in
  for _ = 1 to 200 do
    match Fuzzer.Corpus.pick c rng with
    | Some s when s.Fuzzer.Corpus.data = "hot" -> incr hot
    | _ -> ()
  done;
  Alcotest.(check bool) "high energy dominates" true (!hot > 150)

(* ---------------- fault tolerance -------------------------------------- *)

let test_worker_death_at_sync () =
  (* worker 2 drew no slot in the 2-seed round 0 and dies at its
     rendezvous (3rd farm.sync hit), before it has produced any merged
     execution: the 4-worker farm must then be logically identical to a
     clean run, just one lane short *)
  let clean = run_farm ~workers:1 () in
  let plan =
    Fault.plan [ Fault.rule ~trigger:(Fault.Nth 3) "farm.sync" Fault.Raise ]
  in
  let faulted = Fault.with_plan plan (fun () -> run_farm ~workers:4 ()) in
  Alcotest.(check (list (pair int string)))
    "worker 2 dead"
    [ (2, "fault at farm.sync") ]
    faulted.Farm.fs_dead;
  Alcotest.(check (list int)) "coverage unaffected" clean.Farm.fs_coverage
    faulted.Farm.fs_coverage;
  Alcotest.(check (list int)) "pruned unaffected" clean.Farm.fs_pruned
    faulted.Farm.fs_pruned;
  Alcotest.(check (list string)) "corpus unaffected" clean.Farm.fs_corpus
    faulted.Farm.fs_corpus;
  Alcotest.(check int) "cycles unaffected" clean.Farm.fs_total_cycles
    faulted.Farm.fs_total_cycles;
  (* survivors are deterministic: same plan, same outcome *)
  let again = Fault.with_plan plan (fun () -> run_farm ~workers:4 ()) in
  Alcotest.(check bool) "repeatable under faults" true
    (logical faulted = logical again);
  (* killing a slot-holding worker instead discards its in-flight round:
     the farm loses that seed execution but still completes *)
  let lossy =
    Fault.with_plan
      (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 2) "farm.sync" Fault.Raise ])
      (fun () -> run_farm ~workers:4 ())
  in
  Alcotest.(check (list (pair int string)))
    "worker 1 dead"
    [ (1, "fault at farm.sync") ]
    lossy.Farm.fs_dead;
  Alcotest.(check int) "seed slot 1 lost with its worker"
    (clean.Farm.fs_execs - 1) lossy.Farm.fs_execs

let test_all_workers_die () =
  let st =
    Fault.with_plan
      (Fault.plan [ Fault.rule "farm.sync" Fault.Raise ])
      (fun () -> run_farm ~workers:2 ())
  in
  Alcotest.(check int) "both dead" 2 (List.length st.Farm.fs_dead);
  (* both workers die at the seed round's rendezvous, so that round
     lost its last worker: it has no barrier and merges nothing *)
  Alcotest.(check int) "only the seed round ran" 0 st.Farm.fs_sync_rounds

(* A round that loses its last worker publishes nothing: a checkpoint
   of it would claim a merged round with none of its slots merged, and
   a resume from it would skip those slots. *)
let test_all_dead_round_no_checkpoint () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "odin-test-all-dead"
  in
  Objstore.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "ck" in
  let st =
    Fault.with_plan
      (Fault.plan [ Fault.rule "farm.sync" Fault.Raise ])
      (fun () -> run_farm ~workers:2 ~checkpoint_path:path ())
  in
  Alcotest.(check int) "no barrier" 0 st.Farm.fs_sync_rounds;
  Alcotest.(check bool) "no checkpoint published" false (Sys.file_exists path)

let test_vm_step_transient_skips () =
  let st =
    Fault.with_plan
      (Fault.plan
         [ Fault.rule ~trigger:(Fault.Nth 40) "vm.step" Fault.Transient ])
      (fun () -> run_farm ~workers:2 ())
  in
  Alcotest.(check int) "one execution skipped" 1 st.Farm.fs_skipped;
  Alcotest.(check (list (pair int string))) "nobody died" [] st.Farm.fs_dead;
  Alcotest.(check int) "slots conserved"
    (List.length seeds + 60)
    (st.Farm.fs_execs + st.Farm.fs_skipped + st.Farm.fs_crashes)

let test_vm_step_injected_kills_worker () =
  let st =
    Fault.with_plan
      (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 40) "vm.step" Fault.Raise ])
      (fun () -> run_farm ~workers:2 ())
  in
  Alcotest.(check int) "one worker dead" 1 (List.length st.Farm.fs_dead);
  Alcotest.(check bool) "farm degraded gracefully" true
    (st.Farm.fs_coverage <> [] && st.Farm.fs_execs > 0)

(* ---------------- shared object cache ---------------------------------- *)

let shared_src =
  {|
int f(int x) { return x * 3 + 1; }
int g(int x) { return f(x) + 7; }
int main(int x) { return g(x) + f(x); }
|}

let test_shared_cache_cross_hits () =
  let shared = Odin.Session.object_cache () in
  let mk owner =
    let m = Minic.Lower.compile shared_src in
    let s =
      Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        ~objects:shared ~owner m
    in
    ignore (Odin.Cov.setup s);
    ignore (Odin.Session.build s);
    s
  in
  let s0 = mk 0 in
  Alcotest.(check int) "owner build: no cross hits" 0
    (Odin.Session.cross_hits shared);
  let s1 = mk 1 in
  Alcotest.(check bool) "second session hits the first's objects" true
    (Odin.Session.cross_hits shared > 0);
  (* both executables behave identically *)
  let run s x = Vm.call (Vm.create (Odin.Session.executable s)) "main" [ x ] in
  List.iter
    (fun x -> Alcotest.(check int64) "same behaviour" (run s0 x) (run s1 x))
    [ 0L; 5L; 41L ]

(* A cross hit is a hit on an entry another session put in the cache,
   not on a key another session once produced: after A's copy of a
   state is evicted and B recompiles it, B's hits on its own copy are
   not cross hits. One fragment and a 2-entry single-shard LRU make the
   eviction order exact. *)
let test_cross_hits_follow_the_entry () =
  let shared = Odin.Session.object_cache ~size:2 ~shards:1 () in
  let mk owner =
    let m = Minic.Lower.compile shared_src in
    let s =
      Odin.Session.create ~mode:Odin.Partition.One ~keep:[ "main" ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        ~objects:shared ~owner m
    in
    ignore (Odin.Cov.setup s);
    ignore (Odin.Session.build s);
    s
  in
  (* set probe [i] of session [s] and refresh; the recompile event *)
  let set s i enabled =
    let mgr = s.Odin.Session.manager in
    Instr.Manager.set_enabled mgr
      (List.nth (Instr.Manager.to_list mgr) i)
      enabled;
    Option.get (Odin.Session.refresh s)
  in
  let hits (ev : Odin.Session.recompile_event) = ev.Odin.Session.ev_cache_hits in
  (* LRU contents, oldest first, after each step *)
  let a = mk 0 in (* [all(A)] *)
  ignore (set a 0 false); (* [all(A); -p(A)] *)
  let b = mk 1 in (* B's build hits all(A): [-p(A); all(A)] *)
  Alcotest.(check int) "B's build is a cross hit" 1
    (Odin.Session.cross_hits shared);
  ignore (set a 1 false); (* [all(A); -p-q(A)] *)
  Alcotest.(check int) "B recompiles the evicted state" 0
    (hits (set b 0 false)); (* [-p-q(A); -p(B)] *)
  Alcotest.(check int) "B recompiles the initial state" 0
    (hits (set b 0 true)); (* [-p(B); all(B)] *)
  Alcotest.(check int) "B hits its own copy" 1 (hits (set b 0 false));
  Alcotest.(check int) "no cross hit on B's own copy" 1
    (Odin.Session.cross_hits shared)

(* ---------------- structural fragment hashing -------------------------- *)

let test_shash_agrees_with_printer () =
  (* the structural digest must induce the same equality classes as the
     printed text it replaced in the cache key *)
  let variants =
    List.map Minic.Lower.compile
      [
        shared_src;
        "int main(int x) { return x + 1; }";
        "int main(int x) { return x + 2; }";
        "int main(int y) { return y + 1; }";
      ]
  in
  let ms = variants @ List.map Ir.Clone.clone_module variants in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let printed =
            Ir.Print.module_to_string a = Ir.Print.module_to_string b
          in
          let structural =
            Ir.Shash.module_digest a = Ir.Shash.module_digest b
          in
          Alcotest.(check bool) "printed and structural keys agree" printed
            structural)
        ms)
    ms

let test_shash_clone_stable () =
  let m = Workloads.Generate.compile tiny in
  Alcotest.(check bool) "clone digests equal" true
    (Ir.Shash.module_digest m = Ir.Shash.module_digest (Ir.Clone.clone_module m))

(* ---------------- store GC --------------------------------------------- *)

let with_store f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "odin-test-gc" in
  Objstore.rm_rf dir;
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  f (Objstore.open_store dir)

(* pin an entry's mtime so eviction order is deterministic *)
let set_age st key ~mtime = Unix.utimes (Objstore.entry_path st key) mtime mtime

let test_gc_eviction_order () =
  with_store @@ fun st ->
  ignore (Objstore.put st "cold" (String.make 100 'a'));
  ignore (Objstore.put st "warm" (String.make 100 'b'));
  ignore (Objstore.put st "hot" (String.make 100 'c'));
  set_age st "cold" ~mtime:1000.;
  set_age st "warm" ~mtime:2000.;
  set_age st "hot" ~mtime:3000.;
  let total =
    List.fold_left (fun a (_, sz, _) -> a + sz) 0 (Objstore.scan_entries st)
  in
  let per_entry = total / 3 in
  (* budget for two entries: exactly the coldest is evicted *)
  let g = Objstore.gc ~max_bytes:(2 * per_entry) st in
  Alcotest.(check int) "scanned all" 3 g.Objstore.gc_scanned;
  Alcotest.(check int) "evicted coldest" 1 g.Objstore.gc_evicted;
  Alcotest.(check int) "two live" 2 g.Objstore.gc_live;
  Alcotest.(check bool) "cold gone" true (Objstore.get st "cold" = None);
  Alcotest.(check bool) "warm kept" true (Objstore.get st "warm" <> None);
  Alcotest.(check bool) "hot kept" true (Objstore.get st "hot" <> None);
  let s = Objstore.stats st in
  Alcotest.(check int) "gc_runs" 1 s.Objstore.st_gc_runs;
  Alcotest.(check int) "st_gc_evicted" 1 s.Objstore.st_gc_evicted

let test_gc_noop_within_budget () =
  with_store @@ fun st ->
  ignore (Objstore.put st "a" "payload");
  let g = Objstore.gc ~max_bytes:max_int st in
  Alcotest.(check int) "nothing evicted" 0 g.Objstore.gc_evicted;
  Alcotest.(check int) "live" 1 g.Objstore.gc_live

let test_farm_gc_under_limit () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "odin-test-farm-gc"
  in
  Objstore.rm_rf dir;
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  (* a 1-byte budget forces eviction at every barrier *)
  let st =
    run_farm ~workers:2 ~execs:20 ~sync:10 ~cache_dir:dir ~cache_limit:1 ()
  in
  Alcotest.(check bool) "store GC evicted" true (st.Farm.fs_gc_evicted > 0);
  Alcotest.(check bool) "store stats surfaced" true (st.Farm.fs_store <> None)

(* ---------------- registration ----------------------------------------- *)

let () =
  Alcotest.run "farm"
    [
      ( "invariance",
        [
          Alcotest.test_case "workers 1/2/4 identical" `Slow
            test_invariance_across_workers;
          Alcotest.test_case "no-prune identical" `Slow test_invariance_no_prune;
          Alcotest.test_case "repeat determinism" `Slow test_repeat_determinism;
          Alcotest.test_case "on a real domain pool" `Slow
            test_invariance_on_domains;
        ] );
      ( "csync",
        [
          Alcotest.test_case "dedup + stale + accept" `Quick test_csync_dedup;
          Alcotest.test_case "dedup across rounds" `Quick
            test_csync_dedup_across_rounds;
          Alcotest.test_case "pid bounds" `Quick test_csync_bounds;
        ] );
      ( "votes",
        [
          Alcotest.test_case "tally, quorum, merge" `Quick test_votes;
        ] );
      ( "probe state",
        [
          Alcotest.test_case "apply_state takes only what is new" `Quick
            test_apply_state_takes_only_new;
        ] );
      ( "adaptive sync",
        [
          Alcotest.test_case "quiet barriers scale interval" `Quick
            test_adaptive_interval;
          Alcotest.test_case "farm end to end" `Slow
            test_adaptive_farm_end_to_end;
        ] );
      ( "energy",
        [
          Alcotest.test_case "seed_energy shape" `Quick test_seed_energy;
          Alcotest.test_case "energy drives pick" `Quick test_energy_drives_pick;
        ] );
      ( "faults",
        [
          Alcotest.test_case "worker death at sync barrier" `Slow
            test_worker_death_at_sync;
          Alcotest.test_case "all workers die" `Quick test_all_workers_die;
          Alcotest.test_case "all-dead round publishes no checkpoint" `Quick
            test_all_dead_round_no_checkpoint;
          Alcotest.test_case "vm.step transient skips one exec" `Quick
            test_vm_step_transient_skips;
          Alcotest.test_case "vm.step raise kills worker" `Quick
            test_vm_step_injected_kills_worker;
        ] );
      ( "shared-cache",
        [
          Alcotest.test_case "cross-session hits" `Quick
            test_shared_cache_cross_hits;
          Alcotest.test_case "cross hits follow the entry" `Quick
            test_cross_hits_follow_the_entry;
        ] );
      ( "shash",
        [
          Alcotest.test_case "agrees with printer" `Quick
            test_shash_agrees_with_printer;
          Alcotest.test_case "clone stable" `Quick test_shash_clone_stable;
        ] );
      ( "store-gc",
        [
          Alcotest.test_case "coldest-first eviction" `Quick
            test_gc_eviction_order;
          Alcotest.test_case "no-op within budget" `Quick
            test_gc_noop_within_budget;
          Alcotest.test_case "farm with shared store" `Quick
            test_farm_gc_under_limit;
        ] );
    ]

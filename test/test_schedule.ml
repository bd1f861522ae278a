(* The O(changed) refresh path: incremental probe scheduler, the
   object-cache short-circuit before verify, and host-symbol slabs.

   Units pin the mechanism down: the manager's dirty-set / by-target
   indexes, the index-driven schedule against the full propagate walk,
   re-heal feeding the same dirty-set, cache hits skipping verify,
   host-slab patching and slab compaction.

   The equivalence suite is the tentpole invariant end to end: a
   200-toggle probe storm must produce bit-identical executable images,
   VM traces and outcomes whether the scheduler is incremental or the
   full walk, at every pool size. *)

module Incr = Link.Incremental
module L = Link.Linker
module Objfile = Link.Objfile
module Fault = Support.Fault
module Pool = Support.Pool

let counter_value session name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter
       session.Odin.Session.telemetry.Telemetry.Recorder.metrics name)

(* ---------------- units: manager dirty-set + by-target index -------- *)

let cov_payload block =
  Instr.Probe.Cov { Instr.Probe.cov_block = block; cov_hits = 0 }

let pids ps = List.map (fun (p : Instr.Probe.t) -> p.Instr.Probe.pid) ps

let test_manager_indexes () =
  let mgr = Instr.Manager.create () in
  let p1 = Instr.Manager.add mgr ~target:"f" (cov_payload "b0") in
  let p2 = Instr.Manager.add mgr ~target:"g" (cov_payload "b1") in
  let p3 = Instr.Manager.add mgr ~target:"f" (cov_payload "b2") in
  (* by-target index serves pid-ascending, exactly to_list's order *)
  Alcotest.(check (list int)) "probes_on f"
    [ p1.Instr.Probe.pid; p3.Instr.Probe.pid ]
    (pids (Instr.Manager.probes_on mgr "f"));
  Alcotest.(check (list int)) "probes_on g" [ p2.Instr.Probe.pid ]
    (pids (Instr.Manager.probes_on mgr "g"));
  Alcotest.(check (list int)) "probes_on unknown" []
    (pids (Instr.Manager.probes_on mgr "nope"));
  (* fresh probes are dirty; clear_changes empties the dirty-set *)
  Alcotest.(check (list string)) "all targets dirty" [ "f"; "g" ]
    (Instr.Manager.changed_targets mgr);
  Instr.Manager.clear_changes mgr;
  Alcotest.(check (list string)) "clean" [] (Instr.Manager.changed_targets mgr);
  Alcotest.(check bool) "no changes" false (Instr.Manager.has_changes mgr);
  (* a toggle dirties exactly its probe and target *)
  Instr.Manager.set_enabled mgr p2 false;
  Alcotest.(check (list int)) "changed probe" [ p2.Instr.Probe.pid ]
    (pids (Instr.Manager.changed_probes mgr));
  Alcotest.(check (list string)) "changed target" [ "g" ]
    (Instr.Manager.changed_targets mgr);
  (* same-state toggle is not a change *)
  Instr.Manager.set_enabled mgr p2 false;
  Alcotest.(check (list int)) "idempotent toggle" [ p2.Instr.Probe.pid ]
    (pids (Instr.Manager.changed_probes mgr));
  (* removal drops the probe from the index but keeps the target dirty *)
  Instr.Manager.remove mgr p3;
  Alcotest.(check (list int)) "probes_on after remove" [ p1.Instr.Probe.pid ]
    (pids (Instr.Manager.probes_on mgr "f"));
  Alcotest.(check (list string)) "removed target dirty" [ "f"; "g" ]
    (Instr.Manager.changed_targets mgr);
  Instr.Manager.remove mgr p1;
  Alcotest.(check (list int)) "empty bucket" []
    (pids (Instr.Manager.probes_on mgr "f"));
  Instr.Manager.clear_changes mgr;
  Alcotest.(check bool) "clean again" false (Instr.Manager.has_changes mgr)

(* ---------------- units: index-driven schedule ---------------- *)

let sched_src =
  {|
static int f0(int x) { if (x > 3) return x * 2; return x + 1; }
static int f1(int x) { int a = 0; for (int i = 0; i < 3; i++) a = a + f0(x + i); return a; }
static int f2(int x) { if ((x & 1) == 0) return f1(x); return f1(x + 1); }
static int f3(int x) { return f2(x) + f0(x); }
static int f4(int x) { int a = 0; while (x > 0) { a = a + f3(x); x = x - 7; } return a; }
int main(int x) { return f4(x) + f2(x + 5); }
|}

let storm_inputs = [ 0L; 1L; 5L; 17L; 50L ]

let mk_session ?(src = sched_src) ~sched ~pool () =
  let m = Minic.Lower.compile src in
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~pool ~incremental_sched:sched m
  in
  ignore (Odin.Cov.setup session);
  ignore (Odin.Session.build session);
  session

let first_probe session =
  let found = ref None in
  Instr.Manager.iter
    (fun pr -> if !found = None then found := Some pr)
    session.Odin.Session.manager;
  Option.get !found

(* Everything a schedule decides, as a comparable value. *)
let sched_view (s : Odin.Session.sched) =
  ( s.Odin.Session.changed_fragments,
    Odin.Session.SSet.elements s.Odin.Session.changed_symbols,
    pids s.Odin.Session.active )

let test_schedule_visits_only_dirty () =
  let session = mk_session ~sched:true ~pool:Pool.serial () in
  let n_frags =
    Array.length session.Odin.Session.plan.Odin.Partition.fragments
  in
  (* the initial build walks everything, once *)
  Alcotest.(check int) "initial visit is O(program)" n_frags
    (counter_value session "session.schedule_visited");
  let p = first_probe session in
  Instr.Manager.set_enabled session.Odin.Session.manager p false;
  let sched = Odin.Session.schedule session in
  (* one toggled probe -> exactly its fragment, found via the index *)
  (match sched.Odin.Session.changed_fragments with
  | [ fid ] ->
    let f = session.Odin.Session.plan.Odin.Partition.fragments.(fid) in
    Alcotest.(check bool) "the probe's own fragment" true
      (Odin.Partition.SSet.mem p.Instr.Probe.target f.Odin.Partition.members)
  | l -> Alcotest.failf "expected 1 fragment, got %d" (List.length l));
  Alcotest.(check int) "refresh visited only the dirty fragment"
    (n_frags + 1)
    (counter_value session "session.schedule_visited");
  ignore (Odin.Session.rebuild sched);
  (* the full walk agrees but pays O(program) *)
  let full = mk_session ~sched:false ~pool:Pool.serial () in
  Instr.Manager.set_enabled full.Odin.Session.manager (first_probe full) false;
  let full_sched = Odin.Session.schedule full in
  Alcotest.(check (list int)) "full walk schedules the same fragment"
    sched.Odin.Session.changed_fragments
    full_sched.Odin.Session.changed_fragments;
  Alcotest.(check int) "full walk visits every fragment" (n_frags + n_frags)
    (counter_value full "session.schedule_visited");
  ignore (Odin.Session.rebuild full_sched)

let test_schedule_equivalence_direct () =
  (* the two schedulers must produce identical sched values for the
     same dirty state — fragments, symbols and back-propagated probes *)
  let inc = mk_session ~sched:true ~pool:Pool.serial () in
  let full = mk_session ~sched:false ~pool:Pool.serial () in
  let rand =
    let state = ref 20260809 in
    fun () ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state
  in
  for round = 1 to 25 do
    let choices = ref [] in
    Instr.Manager.iter
      (fun p -> choices := (p.Instr.Probe.pid, rand () mod 3 = 0) :: !choices)
      inc.Odin.Session.manager;
    let apply session =
      Instr.Manager.iter
        (fun p ->
          match List.assoc_opt p.Instr.Probe.pid !choices with
          | Some true ->
            Instr.Manager.set_enabled session.Odin.Session.manager p
              (not p.Instr.Probe.enabled)
          | _ -> ())
        session.Odin.Session.manager
    in
    apply inc;
    apply full;
    let si = Odin.Session.schedule inc in
    let sf = Odin.Session.schedule full in
    if sched_view si <> sched_view sf then
      Alcotest.failf "round %d: schedules diverged" round;
    ignore (Odin.Session.rebuild si);
    ignore (Odin.Session.rebuild sf)
  done

(* ---------------- units: re-heal feeds the dirty-set ---------------- *)

let test_reheal_via_dirty_set () =
  let session = mk_session ~sched:true ~pool:Pool.serial () in
  let p = first_probe session in
  Instr.Manager.set_enabled session.Odin.Session.manager p false;
  (* a persistent materialize fault degrades the probe's fragment *)
  (match
     Fault.with_plan
       (Fault.plan [ Fault.rule "session.materialize" Fault.Transient ])
       (fun () -> Option.get (Odin.Session.try_refresh session))
   with
  | Odin.Session.Degraded (_ :: _) -> ()
  | _ -> Alcotest.fail "expected a degraded fragment");
  let degraded = Odin.Session.degraded_fragments session in
  Alcotest.(check bool) "degraded set non-empty" true (degraded <> []);
  (* no probe changed, yet the incremental schedule carries exactly the
     degraded fragments: the re-heal path rides the same dirty-set *)
  let sched = Odin.Session.schedule session in
  Alcotest.(check (list int)) "re-heal schedules the degraded fragments"
    degraded sched.Odin.Session.changed_fragments;
  (match Odin.Session.rebuild sched with
  | Odin.Session.Ok -> ()
  | _ -> Alcotest.fail "re-heal rebuild failed");
  Alcotest.(check (list int)) "healed" []
    (Odin.Session.degraded_fragments session)

(* ---------------- units: object-cache short-circuit ---------------- *)

(* Child span names of the session's most recent fragment compile. *)
let last_fragment_steps session =
  let frags =
    Telemetry.Span.find_all
      session.Odin.Session.telemetry.Telemetry.Recorder.spans "fragment"
  in
  List.map Telemetry.Span.name
    (Telemetry.Span.children (List.nth frags (List.length frags - 1)))

let test_memo_hits () =
  let session = mk_session ~sched:true ~pool:Pool.serial () in
  let p = first_probe session in
  (* warm both toggle states *)
  Instr.Manager.set_enabled session.Odin.Session.manager p false;
  ignore (Odin.Session.refresh session);
  Instr.Manager.set_enabled session.Odin.Session.manager p true;
  ignore (Odin.Session.refresh session);
  let hits0 = counter_value session "session.opt_memo_hits" in
  Instr.Manager.set_enabled session.Odin.Session.manager p false;
  let ev = Option.get (Odin.Session.refresh session) in
  (* the warm toggle is served by the object cache right after the
     digest — before verify and Opt.Pipeline — and counts as an
     in-memory hit *)
  Alcotest.(check int) "served as cache hit"
    (List.length ev.Odin.Session.ev_fragments)
    ev.Odin.Session.ev_cache_hits;
  Alcotest.(check int) "in-memory hit counted"
    (hits0 + List.length ev.Odin.Session.ev_fragments)
    (counter_value session "session.opt_memo_hits");
  Alcotest.(check bool) "hit skips verify" false
    (List.mem "verify" (last_fragment_steps session))

(* ---------------- units: host-symbol slabs ---------------- *)

let an_mfunc =
  lazy
    (let m = Minic.Lower.compile "int one(int x) { return x; }" in
     let obj = Objfile.of_module m in
     match
       List.find_map
         (fun (s : Objfile.sym) ->
           match s.Objfile.s_def with
           | Objfile.Code mf -> Some mf
           | Objfile.Data _ -> None)
         obj.Objfile.o_syms
     with
     | Some mf -> mf
     | None -> Alcotest.fail "no code symbol in probe module")

let code ?(global = true) name =
  {
    Objfile.s_name = name;
    s_global = global;
    s_def = Objfile.Code (Lazy.force an_mfunc);
    s_comdat = None;
  }

let data ?(global = true) ?(relocs = []) ?(size = 8) name =
  {
    Objfile.s_name = name;
    s_global = global;
    s_def =
      Objfile.Data
        {
          Objfile.d_bytes = Bytes.make size '\x00';
          d_relocs = relocs;
          d_const = false;
        };
    s_comdat = None;
  }

let obj ?(aliases = []) ?(undef = []) name syms =
  { Objfile.o_name = name; o_syms = syms; o_aliases = aliases; o_undefined = undef }

let addr exe name = L.addr_of exe name

let test_host_slab_patching () =
  let t = Incr.create () in
  let objs1 = [ obj ~undef:[ "h1" ] "A" [ code "a1" ]; obj "B" [ code "b1" ] ] in
  let e1 = Incr.relink t ~host:[ "h1" ] ~changed:[] objs1 in
  let h1 = addr e1 "h1" in
  Alcotest.(check (option string)) "h1 thunk registered" (Some "h1")
    (Hashtbl.find_opt e1.L.host_at_addr h1);
  (* adding a host symbol + a changed object referencing it: patches *)
  let objs2 =
    [ obj ~undef:[ "h1"; "h2" ] "A" [ code "a1" ]; obj "B" [ code "b1" ] ]
  in
  let e2 = Incr.relink t ~host:[ "h1"; "h2" ] ~changed:[ "A" ] objs2 in
  Alcotest.(check bool) "host addition patches" true
    (Incr.last t).Incr.ls_incremental;
  Alcotest.(check int64) "h1 thunk stable" h1 (addr e2 "h1");
  Alcotest.(check (option string)) "h2 gets a fresh thunk" (Some "h2")
    (Hashtbl.find_opt e2.L.host_at_addr (addr e2 "h2"));
  Alcotest.(check bool) "h2 after h1 in the host slab" true
    (addr e2 "h2" > h1);
  (* the patched tables behave like a from-scratch link's *)
  let fresh = Incr.relink (Incr.create ()) ~host:[ "h1"; "h2" ] ~changed:[] objs2 in
  Alcotest.(check (option string)) "fresh link also resolves h2" (Some "h2")
    (Hashtbl.find_opt fresh.L.host_at_addr (addr fresh "h2"));
  (* removing a host symbol falls back to the full link *)
  let fb0 = (Incr.stats t).Incr.st_fallbacks in
  ignore (Incr.relink t ~host:[ "h1" ] ~changed:[ "A" ] objs1);
  Alcotest.(check bool) "host removal is a full link" false
    (Incr.last t).Incr.ls_incremental;
  Alcotest.(check int) "host removal counted as fallback" (fb0 + 1)
    (Incr.stats t).Incr.st_fallbacks

let test_host_new_reference_patches () =
  (* the host symbol was declared all along; a changed object merely
     references it for the first time — served off the cursor *)
  let t = Incr.create () in
  let objs1 = [ obj "A" [ code "a1" ]; obj "B" [ code "b1" ] ] in
  ignore (Incr.relink t ~host:[ "hx" ] ~changed:[] objs1);
  let objs2 = [ obj ~undef:[ "hx" ] "A" [ code "a1" ]; obj "B" [ code "b1" ] ] in
  let e = Incr.relink t ~host:[ "hx" ] ~changed:[ "A" ] objs2 in
  Alcotest.(check bool) "new host reference patches" true
    (Incr.last t).Incr.ls_incremental;
  Alcotest.(check (option string)) "hx resolved to a thunk" (Some "hx")
    (Hashtbl.find_opt e.L.host_at_addr (addr e "hx"));
  (* a genuinely undefined symbol still falls back *)
  let objs3 = [ obj ~undef:[ "nope" ] "A" [ code "a1" ]; obj "B" [ code "b1" ] ] in
  Alcotest.(check bool) "non-host undefined raises via full path" true
    (try
       ignore (Incr.relink t ~host:[ "hx" ] ~changed:[ "A" ] objs3);
       false
     with L.Undefined_symbol _ -> true)

(* ---------------- units: slab overflow + compaction ---------------- *)

let test_overflow_highwater_and_compaction () =
  let mk size =
    [ obj "A" [ code "a1"; data ~size "atab" ]; obj "B" [ code "b1" ] ]
  in
  let t = Incr.create () in
  ignore (Incr.relink t ~changed:[] (mk 8));
  (* 80 bytes burst the 64-byte slab: fallback, counted as overflow *)
  ignore (Incr.relink t ~changed:[ "A" ] (mk 80));
  Alcotest.(check int) "overflow counted" 1 (Incr.stats t).Incr.st_overflows;
  Alcotest.(check bool) "overflow served full" false
    (Incr.last t).Incr.ls_incremental;
  (* shrink back: still patches inside the re-laid slab *)
  ignore (Incr.relink t ~changed:[ "A" ] (mk 8));
  Alcotest.(check bool) "shrink patches" true (Incr.last t).Incr.ls_incremental;
  (* the high-water mark survives a fresh full link: it still
     over-allocates A's slab so the growth pattern fits *)
  ignore (Incr.relink ~incremental:false t ~changed:[] (mk 8));
  let sa = List.hd (Incr.slabs t) in
  Alcotest.(check int) "full link keeps high-water capacity" 128
    sa.Incr.si_data_cap;
  (* manual compaction drops the inflation: tight layout again *)
  Incr.compact t;
  ignore (Incr.relink t ~changed:[] (mk 8));
  let sa = List.hd (Incr.slabs t) in
  Alcotest.(check int) "compacted layout is tight" 64 sa.Incr.si_data_cap;
  Alcotest.(check int) "compaction counted" 1 (Incr.stats t).Incr.st_compactions;
  (* pathological growth: compact_threshold consecutive overflows
     trigger the automatic compaction *)
  let t = Incr.create () in
  ignore (Incr.relink t ~changed:[] (mk 8));
  let size = ref 65 in
  for _ = 1 to Incr.compact_threshold do
    ignore (Incr.relink t ~changed:[ "A" ] (mk !size));
    Alcotest.(check bool) "each growth step overflows" false
      (Incr.last t).Incr.ls_incremental;
    size := ((!size - 1) * 2) + 1
  done;
  Alcotest.(check int) "overflows counted" Incr.compact_threshold
    (Incr.stats t).Incr.st_overflows;
  Alcotest.(check int) "auto-compacted once" 1 (Incr.stats t).Incr.st_compactions

(* ---------------- equivalence: 200-toggle storm ---------------- *)

let exe_obs (exe : L.exe) =
  let img =
    List.sort compare
      (List.map (fun (b, by) -> (b, Bytes.to_string by)) exe.L.image)
  in
  let syms =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) exe.L.sym_addr []
    |> List.sort compare
  in
  (img, syms)

let observe session =
  let exe = Odin.Session.executable session in
  let trace =
    List.map
      (fun x ->
        let vm = Vm.create exe in
        let ret = Vm.call vm "main" [ x ] in
        (ret, vm.Vm.cycles))
      storm_inputs
  in
  (exe_obs exe, trace)

let lcg seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state

let run_storm ~rounds ~pool =
  let inc = mk_session ~sched:true ~pool () in
  let full = mk_session ~sched:false ~pool () in
  let rand = lcg 20240806 in
  let states = ref [ (observe inc, observe full) ] in
  for _ = 1 to rounds do
    let choices = ref [] in
    Instr.Manager.iter
      (fun p -> choices := (p.Instr.Probe.pid, rand () mod 3 = 0) :: !choices)
      inc.Odin.Session.manager;
    let apply session =
      Instr.Manager.iter
        (fun p ->
          match List.assoc_opt p.Instr.Probe.pid !choices with
          | Some true ->
            Instr.Manager.set_enabled session.Odin.Session.manager p
              (not p.Instr.Probe.enabled)
          | _ -> ())
        session.Odin.Session.manager
    in
    apply inc;
    apply full;
    (match (Odin.Session.try_refresh inc, Odin.Session.try_refresh full) with
    | Some Odin.Session.Ok, Some Odin.Session.Ok -> ()
    | None, None -> ()
    | a, b ->
      let s = function
        | None -> "None"
        | Some Odin.Session.Ok -> "Ok"
        | Some (Odin.Session.Degraded _) -> "Degraded"
        | Some (Odin.Session.Rolled_back _) -> "Rolled_back"
      in
      Alcotest.failf "outcomes diverged: incremental %s vs full %s" (s a) (s b));
    states := (observe inc, observe full) :: !states
  done;
  (* the storm must actually exercise the incremental machinery *)
  Alcotest.(check bool) "cache used" true
    (counter_value inc "session.opt_memo_hits" > 0);
  Alcotest.(check bool) "incremental walk visited less" true
    (counter_value inc "session.schedule_visited"
    < counter_value full "session.schedule_visited");
  List.rev !states

let test_storm_equivalence () =
  let per_size =
    List.map
      (fun size ->
        let pool = if size = 1 then Pool.serial else Pool.create ~size () in
        Fun.protect ~finally:(fun () -> if size > 1 then Pool.shutdown pool)
        @@ fun () ->
        let states = run_storm ~rounds:200 ~pool in
        List.iteri
          (fun i (inc_obs, full_obs) ->
            if inc_obs <> full_obs then
              Alcotest.failf "jobs %d, round %d: incremental != full" size i)
          states;
        states)
      [ 1; 2; 4 ]
  in
  match per_size with
  | s1 :: rest ->
    List.iteri
      (fun i s ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs 1 vs %d identical" (List.nth [ 2; 4 ] i))
          true (s = s1))
      rest
  | [] -> assert false

let () =
  Alcotest.run "schedule"
    [
      ( "dirty-set",
        [
          Alcotest.test_case "manager indexes" `Quick test_manager_indexes;
          Alcotest.test_case "visits only dirty fragments" `Quick
            test_schedule_visits_only_dirty;
          Alcotest.test_case "indexed = full walk (25 rounds)" `Quick
            test_schedule_equivalence_direct;
          Alcotest.test_case "re-heal via dirty-set" `Quick
            test_reheal_via_dirty_set;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hits + invalidation on set_opt_rounds" `Quick
            test_memo_hits;
        ] );
      ( "host-slabs",
        [
          Alcotest.test_case "host addition patches" `Quick
            test_host_slab_patching;
          Alcotest.test_case "new host reference patches" `Quick
            test_host_new_reference_patches;
          Alcotest.test_case "overflow high-water + compaction" `Quick
            test_overflow_highwater_and_compaction;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "200-toggle storm, jobs 1/2/4" `Slow
            test_storm_equivalence;
        ] );
    ]

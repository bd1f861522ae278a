(* Two-tier compilation.

   The correctness bar mirrors the relink suite: tiering is a pure
   performance lever, so everything the VM can observe must be
   reachable from an untiered session too. A fully-promoted tiered
   session serves bit-identical objects and traces to an ODIN_TIER=0
   session; a promotion reaches the next execution, which runs on the
   image it was created with; and a torn tier-swap patch rolls back to
   the tier-0 image with the promotion queue intact. *)

module Fault = Support.Fault

(* ---------------- session-level helpers ---------------- *)

let target_src =
  {|
static int f0(int x) { if (x > 3) return x * 2; return x + 1; }
static int f1(int x) { int a = 0; for (int i = 0; i < 3; i++) a = a + f0(x + i); return a; }
static int f2(int x) { if ((x & 1) == 0) return f1(x); return f1(x + 1); }
static int f3(int x) { return f2(x) + f0(x); }
static int f4(int x) { int a = 0; while (x > 0) { a = a + f3(x); x = x - 7; } return a; }
int main(int x) { return f4(x) + f2(x + 5); }
|}

(* Max partition: one fragment per function, so promotions are
   per-function and the schedule is genuinely multi-fragment. *)
let make_session ?tiered () =
  let m = Minic.Lower.compile target_src in
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ?tiered m
  in
  ignore (Odin.Cov.setup session);
  ignore (Odin.Session.build session);
  session

let inputs = [ 0L; 1L; 5L; 17L; 50L ]

let run_main session x =
  let vm = Vm.create (Odin.Session.executable session) in
  let ret = Vm.call vm "main" [ x ] in
  (ret, vm.Vm.cycles)

let trace session = List.map (run_main session) inputs
let returns session = List.map (fun (r, _) -> r) (trace session)

(* Per-fragment object fingerprints: Objfile.t is pure data, so a
   digest of the marshalled bytes is a faithful bit-identity check. *)
let fingerprint session =
  Hashtbl.fold
    (fun fid obj acc -> (fid, Digest.string (Marshal.to_string obj [])) :: acc)
    session.Odin.Session.cache []
  |> List.sort compare

let all_fids session =
  List.map fst (Odin.Session.fragment_sizes session) |> List.sort compare

let toggle_all session enabled =
  Instr.Manager.iter
    (fun p -> Instr.Manager.set_enabled session.Odin.Session.manager p enabled)
    session.Odin.Session.manager

let promote_all session =
  Odin.Session.promote session (all_fids session);
  match Odin.Session.try_refresh session with
  | Some Odin.Session.Ok -> ()
  | Some _ -> Alcotest.fail "promotion refresh not Ok"
  | None -> Alcotest.fail "promotion refresh was a no-op"

(* ---------------- tier-0 baseline semantics ---------------- *)

let test_tier0_starts_baseline () =
  let tiered = make_session ~tiered:true () in
  Alcotest.(check bool) "session is tiered" true (Odin.Session.tiered tiered);
  List.iter
    (fun fid ->
      Alcotest.(check int)
        (Printf.sprintf "fragment %d at tier 0" fid)
        0
        (Odin.Session.fragment_tier tiered fid))
    (all_fids tiered);
  let st = Odin.Session.tier_stats tiered in
  Alcotest.(check bool) "tier-0 compiles counted" true
    (st.Odin.Session.ts_tier0_compiles > 0);
  Alcotest.(check int) "no tier-1 compiles yet" 0
    st.Odin.Session.ts_tier1_compiles;
  (* tier 0 is semantically equivalent to the optimizing tier *)
  let untiered = make_session ~tiered:false () in
  Alcotest.(check (list int64)) "baseline returns match optimized"
    (returns untiered) (returns tiered)

let test_untiered_session_all_tier1 () =
  let s = make_session ~tiered:false () in
  Alcotest.(check bool) "untiered" false (Odin.Session.tiered s);
  List.iter
    (fun fid ->
      Alcotest.(check int) "tier 1" 1 (Odin.Session.fragment_tier s fid))
    (all_fids s);
  Alcotest.(check int) "no tier-0 compiles" 0
    (Odin.Session.tier_stats s).Odin.Session.ts_tier0_compiles

(* ---------------- full promotion: bit-equality ---------------- *)

let test_full_promotion_bit_identical () =
  let tiered = make_session ~tiered:true () in
  let untiered = make_session ~tiered:false () in
  promote_all tiered;
  List.iter
    (fun fid ->
      Alcotest.(check int)
        (Printf.sprintf "fragment %d promoted" fid)
        1
        (Odin.Session.fragment_tier tiered fid))
    (all_fids tiered);
  Alcotest.(check (list int)) "promotion queue drained" []
    (Odin.Session.pending_promotions tiered);
  (* the promoted objects are byte-for-byte the untiered session's *)
  Alcotest.(check bool) "objects bit-identical" true
    (fingerprint tiered = fingerprint untiered);
  (* ... and so is everything the VM observes, cycles included *)
  List.iter2
    (fun (rt, ct) (ru, cu) ->
      Alcotest.(check int64) "same return" ru rt;
      Alcotest.(check int) "same cycles" cu ct)
    (trace tiered) (trace untiered);
  let st = Odin.Session.tier_stats tiered in
  Alcotest.(check int) "promotions landed"
    (List.length (all_fids tiered))
    st.Odin.Session.ts_promotions;
  (* the modelled compile cost must actually separate the tiers *)
  let avg0 = st.Odin.Session.ts_tier0_cost / max 1 st.Odin.Session.ts_tier0_compiles in
  let avg1 = st.Odin.Session.ts_tier1_cost / max 1 st.Odin.Session.ts_tier1_compiles in
  Alcotest.(check bool)
    (Printf.sprintf "tier-0 cheaper per fragment (%d vs %d)" avg0 avg1)
    true (avg0 < avg1)

(* ---------------- tier-keyed object cache ---------------- *)

(* The regression the tier joined the cache key for: a tier-0 object
   must never satisfy a tier-1 lookup of the same fragment, and vice
   versa. A toggle round-trip at tier 0 hits the cache; the promotion
   of the identical IR must compile fresh. *)
let test_cache_keyed_on_tier () =
  let s = make_session ~tiered:true () in
  toggle_all s false;
  ignore (Odin.Session.refresh s);
  toggle_all s true;
  let ev_on = Option.get (Odin.Session.refresh s) in
  Alcotest.(check int) "tier-0 round-trip all cache hits"
    (List.length ev_on.Odin.Session.ev_fragments)
    ev_on.Odin.Session.ev_cache_hits;
  (* same fragments, same Shash, same opt_rounds — only the tier
     changes. A false hit would relink the baseline objects here. *)
  Odin.Session.promote s (all_fids s);
  let ev_promo = Option.get (Odin.Session.refresh s) in
  Alcotest.(check int) "promotion never hits tier-0 entries" 0
    ev_promo.Odin.Session.ev_cache_hits;
  Alcotest.(check bool) "promotion compiled fresh" true
    (List.length ev_promo.Odin.Session.ev_fragments > 0);
  Alcotest.(check bool) "promoted objects match untiered" true
    (fingerprint s = fingerprint (make_session ~tiered:false ()));
  (* demotion direction: a probe toggle on a promoted fragment compiles
     tier 0 again and must not reuse the tier-1 object *)
  toggle_all s false;
  let ev_demote = Option.get (Odin.Session.refresh s) in
  Alcotest.(check bool) "demotion tier-0 variants served from cache" true
    (ev_demote.Odin.Session.ev_cache_hits
    = List.length ev_demote.Odin.Session.ev_fragments);
  List.iter
    (fun fid ->
      Alcotest.(check int) "back at tier 0" 0 (Odin.Session.fragment_tier s fid))
    (all_fids s)

(* ---------------- promote_hot: profile-driven promotion ---------------- *)

let test_promote_hot_from_live_profile () =
  let s = make_session ~tiered:true () in
  (* profile a real execution: f4's loop dominates on large inputs *)
  let vm = Vm.create (Odin.Session.executable s) in
  let prof = Vm.enable_profile vm in
  ignore (Vm.call vm "main" [ 50L ]);
  let fn_cycles = Vm.profile_top prof in
  Alcotest.(check bool) "profile non-empty" true (fn_cycles <> []);
  let hot = Odin.Session.promote_hot ~threshold:0.05 s fn_cycles in
  Alcotest.(check bool) "hot fragments queued" true (hot <> []);
  Alcotest.(check (list int)) "queue matches return"
    (List.sort compare hot)
    (List.sort compare (Odin.Session.pending_promotions s));
  (* pure + idempotent in its input: the farm's determinism hinges on it *)
  Alcotest.(check (list int)) "second call is a no-op" []
    (Odin.Session.promote_hot ~threshold:0.05 s fn_cycles);
  (match Odin.Session.try_refresh s with
  | Some Odin.Session.Ok -> ()
  | _ -> Alcotest.fail "hot promotion refresh failed");
  List.iter
    (fun fid ->
      Alcotest.(check int)
        (Printf.sprintf "hot fragment %d at tier 1" fid)
        1
        (Odin.Session.fragment_tier s fid))
    hot;
  (* untiered sessions never promote *)
  Alcotest.(check (list int)) "untiered: no-op" []
    (Odin.Session.promote_hot (make_session ~tiered:false ()) fn_cycles)

(* ---------------- ODIN_TIER env + equivalence storm ---------------- *)

let with_env_tier v f =
  let old = Sys.getenv_opt "ODIN_TIER" in
  Unix.putenv "ODIN_TIER" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ODIN_TIER" (Option.value ~default:"" old))
    f

let lcg seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state

(* A toggle storm over a tiered session against the ODIN_TIER=0
   control: returns must agree at every round (tier-0 code is
   semantically equivalent), and once fully promoted the two must be
   bit-identical — objects, returns and cycle counts. *)
let test_env_tier_equivalence_storm () =
  let tiered = with_env_tier "1" (fun () -> make_session ()) in
  let control = with_env_tier "0" (fun () -> make_session ()) in
  Alcotest.(check bool) "ODIN_TIER=1 honoured" true (Odin.Session.tiered tiered);
  Alcotest.(check bool) "ODIN_TIER=0 honoured" false
    (Odin.Session.tiered control);
  let rand = lcg 20260809 in
  for round = 1 to 40 do
    let choices = ref [] in
    Instr.Manager.iter
      (fun p -> choices := (p.Instr.Probe.pid, rand () mod 3 = 0) :: !choices)
      tiered.Odin.Session.manager;
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
    apply tiered;
    apply control;
    ignore (Odin.Session.try_refresh tiered);
    ignore (Odin.Session.try_refresh control);
    if returns tiered <> returns control then
      Alcotest.failf "round %d: tiered returns diverged from ODIN_TIER=0" round
  done;
  (* the storm kept the tiered session at the baseline tier throughout *)
  Alcotest.(check bool) "storm exercised tier 0" true
    ((Odin.Session.tier_stats tiered).Odin.Session.ts_tier0_compiles > 0);
  (* full promotion closes the gap to bit-identity *)
  promote_all tiered;
  Alcotest.(check bool) "fully promoted == ODIN_TIER=0 (objects)" true
    (fingerprint tiered = fingerprint control);
  List.iter2
    (fun (rt, ct) (ru, cu) ->
      Alcotest.(check int64) "same return" ru rt;
      Alcotest.(check int) "same cycles" cu ct)
    (trace tiered) (trace control)

(* ---------------- fault matrix: torn tier-swap patch ---------------- *)

let test_torn_tier_swap_rolls_back () =
  let s = make_session ~tiered:true () in
  let before_trace = trace s in
  let before_fp = fingerprint s in
  let fids = all_fids s in
  Odin.Session.promote s fids;
  (match
     Fault.with_plan
       (Fault.plan ~seed:1 [ Fault.rule "link.patch" Fault.Torn ])
       (fun () -> Option.get (Odin.Session.try_refresh s))
   with
  | Odin.Session.Rolled_back _ -> ()
  | Odin.Session.Ok -> Alcotest.fail "torn patch went unnoticed"
  | Odin.Session.Degraded _ -> Alcotest.fail "torn patch degraded");
  Alcotest.(check int) "rollback counted" 1 (Odin.Session.rollbacks s);
  (* clean rollback to the tier-0 image: old exe serves, old objects
     intact, every fragment still at tier 0 *)
  Alcotest.(check bool) "tier-0 objects intact" true (fingerprint s = before_fp);
  List.iter2
    (fun (rb, cb) (ra, ca) ->
      Alcotest.(check int64) "old image serves" rb ra;
      Alcotest.(check int) "old image cycles" cb ca)
    before_trace (trace s);
  List.iter
    (fun fid ->
      Alcotest.(check int) "still tier 0" 0 (Odin.Session.fragment_tier s fid))
    fids;
  (* the promotion queue survived the rollback and lands cleanly now *)
  Alcotest.(check (list int)) "queue retained" fids
    (List.sort compare (Odin.Session.pending_promotions s));
  (match Odin.Session.try_refresh s with
  | Some Odin.Session.Ok -> ()
  | _ -> Alcotest.fail "clean retry failed");
  Alcotest.(check bool) "retry promoted to the untiered image" true
    (fingerprint s = fingerprint (make_session ~tiered:false ()))

let () =
  Alcotest.run "tier"
    [
      ( "baseline",
        [
          Alcotest.test_case "tiered session starts at tier 0" `Quick
            test_tier0_starts_baseline;
          Alcotest.test_case "untiered session is all tier 1" `Quick
            test_untiered_session_all_tier1;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "full promotion bit-identical to untiered" `Quick
            test_full_promotion_bit_identical;
          Alcotest.test_case "object cache keyed on tier" `Quick
            test_cache_keyed_on_tier;
          Alcotest.test_case "promote_hot from a live profile" `Quick
            test_promote_hot_from_live_profile;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "ODIN_TIER storm, 40 rounds" `Slow
            test_env_tier_equivalence_storm;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn tier-swap patch rolls back" `Quick
            test_torn_tier_swap_rolls_back;
        ] );
    ]

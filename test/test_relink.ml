(* The linker and its incremental relinking.

   Units pin down the mechanism with hand-built objects: the one-shot
   link's back-to-back layout, slab allocation and growth padding,
   address stability for unchanged objects, the reverse relocation
   index (an unchanged object's slot is patched when its target moves),
   every fallback trigger, the literal diagnostics of a fresh link and
   of a patch that falls back, and torn-patch detection.

   The equivalence suite is the tentpole invariant end to end: a
   200-toggle probe storm over a session must produce bit-identical
   executable images, VM traces and outcomes whether linking is
   incremental or full, at every pool size. *)

module Incr = Link.Incremental
module L = Link.Linker
module Objfile = Link.Objfile
module Fault = Support.Fault
module Pool = Support.Pool

(* ---------------- hand-built objects ---------------- *)

(* One trivial compiled function, reused as the body of every hand-built
   code symbol: the linker treats [mfunc] as an opaque payload, so the
   tests only care about symbol shape, not code content. *)
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

(* Normalized view of an exe for bit-identity checks. *)
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

let image_slot exe base =
  match List.assoc_opt base exe.L.image with
  | Some bytes -> Bytes.get_int64_le bytes 0
  | None -> Alcotest.failf "no image entry at %#x" base

(* ---------------- units: capacity policy ---------------- *)

let test_capacity_policy () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "code cap %d" n) want
        (Incr.code_capacity n))
    [ (0, 0); (1, 4); (3, 4); (4, 4); (5, 8); (9, 16) ];
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "data cap %d" n) want
        (Incr.data_capacity n))
    [ (0, 0); (1, 64); (64, 64); (65, 128); (200, 256) ]

(* ---------------- units: one-shot layout ---------------- *)

(* A one-shot link sizes every slab exactly to its object, so symbols
   lie back to back in link order. *)
let test_one_shot_layout () =
  let exe =
    Incr.link
      [
        obj "A" [ code "a1"; data ~size:5 "ad"; code ~global:false "a2" ];
        obj "B" [ data ~size:12 ~relocs:[ (0, "a2") ] "bd"; code "b1"; data "be" ];
      ]
  in
  let at name = Int64.to_int (addr exe name) in
  List.iteri
    (fun i name ->
      Alcotest.(check int) (name ^ " code slot") (L.code_base + (16 * i)) (at name))
    [ "a1"; "a2"; "b1" ];
  (* 5 bytes round up to 8, 12 to 16 *)
  List.iter
    (fun (name, off) ->
      Alcotest.(check int) (name ^ " data offset") (L.data_base + off) (at name))
    [ ("ad", 0); ("bd", 8); ("be", 24) ];
  Alcotest.(check (list int)) "image entries in link order"
    [ at "ad"; at "bd"; at "be" ]
    (List.map fst exe.L.image);
  Alcotest.(check int64) "bd's slot holds a2's address" (addr exe "a2")
    (image_slot exe (at "bd"))

(* ---------------- units: slabs + address stability ---------------- *)

(* A: two functions and a table; B: one function plus a data slot
   holding a1's address (an inbound reference A's moves must patch). *)
let objs_v1 () =
  [
    obj "A" [ code "a1"; code ~global:false "a2"; data "atab" ];
    obj "B" [ code "b1"; data ~relocs:[ (0, "a1") ] "btab" ];
  ]

let test_slab_layout_and_stability () =
  let t = Incr.create () in
  let e1 = Incr.relink t ~changed:[] (objs_v1 ()) in
  Alcotest.(check bool) "first link is full" false (Incr.last t).Incr.ls_incremental;
  let slabs = Incr.slabs t in
  Alcotest.(check (list string)) "slab per object" [ "A"; "B" ]
    (List.map (fun s -> s.Incr.si_obj) slabs);
  let sa = List.hd slabs and sb = List.nth slabs 1 in
  Alcotest.(check int) "A code cap padded" 4 sa.Incr.si_code_cap;
  Alcotest.(check int) "A data cap padded" 64 sa.Incr.si_data_cap;
  Alcotest.(check int) "B after A's full slab"
    (sa.Incr.si_code_base + (16 * 4))
    sb.Incr.si_code_base;
  (* change A's contents without changing its shape: the patch path
     serves it and every address is stable *)
  let a1 = addr e1 "a1" and b1 = addr e1 "b1" and bt = addr e1 "btab" in
  let e2 = Incr.relink t ~changed:[ "A" ] (objs_v1 ()) in
  Alcotest.(check bool) "patched" true (Incr.last t).Incr.ls_incremental;
  Alcotest.(check int) "one incremental relink" 1 (Incr.stats t).Incr.st_incremental;
  List.iter
    (fun (name, old) ->
      Alcotest.(check int64) (name ^ " stable") old (addr e2 name))
    [ ("a1", a1); ("b1", b1); ("btab", bt) ];
  (* and the patched exe is bit-identical to a from-scratch slab link *)
  let fresh = Incr.relink (Incr.create ()) ~changed:[] (objs_v1 ()) in
  Alcotest.(check bool) "image identical to fresh full link" true
    (exe_obs e2 = exe_obs fresh)

let test_growth_within_slab_and_reverse_index () =
  let t = Incr.create () in
  let e1 = Incr.relink t ~changed:[] (objs_v1 ()) in
  let a1_old = addr e1 "a1" in
  let b_data = (List.nth (Incr.slabs t) 1).Incr.si_data_base in
  Alcotest.(check int64) "B.btab holds a1's address" a1_old
    (image_slot e1 b_data);
  (* grow A inside its padding: an internal symbol lands in front, so
     a1 moves one slot — still incremental *)
  let objs2 =
    [
      obj "A" [ code ~global:false "a0"; code "a1"; code ~global:false "a2"; data "atab" ];
      obj "B" [ code "b1"; data ~relocs:[ (0, "a1") ] "btab" ];
    ]
  in
  let e2 = Incr.relink t ~changed:[ "A" ] objs2 in
  Alcotest.(check bool) "still incremental" true (Incr.last t).Incr.ls_incremental;
  let a1_new = addr e2 "a1" in
  Alcotest.(check int64) "a1 moved one slot" (Int64.add a1_old 16L) a1_new;
  (* the reverse relocation index patched unchanged B's slot in place *)
  Alcotest.(check int64) "B.btab re-pointed at moved a1" a1_new
    (image_slot e2 b_data);
  Alcotest.(check bool) "inbound slot patched" true
    ((Incr.last t).Incr.ls_relocs_patched >= 1);
  (* the committed exe of the previous link was never mutated *)
  Alcotest.(check int64) "old exe image untouched" a1_old (image_slot e1 b_data);
  (* equivalent to linking objs2 from scratch *)
  let fresh = Incr.relink (Incr.create ()) ~changed:[] objs2 in
  Alcotest.(check bool) "identical to fresh full link" true
    (exe_obs e2 = exe_obs fresh)

let test_fallback_triggers () =
  let base_stats t = ((Incr.stats t).Incr.st_full, (Incr.stats t).Incr.st_fallbacks) in
  let check_falls_back what objs2 =
    let t = Incr.create () in
    ignore (Incr.relink t ~changed:[] (objs_v1 ()));
    let full0, fb0 = base_stats t in
    let e = Incr.relink t ~changed:[ "A" ] objs2 in
    let full1, fb1 = base_stats t in
    Alcotest.(check bool) (what ^ ": fell back") true
      (full1 = full0 + 1 && fb1 = fb0 + 1);
    Alcotest.(check bool) (what ^ ": served full") false
      (Incr.last t).Incr.ls_incremental;
    (* a fallback is still a correct link *)
    let fresh = Incr.relink (Incr.create ()) ~changed:[] objs2 in
    Alcotest.(check bool) (what ^ ": identical to fresh") true
      (exe_obs e = exe_obs fresh)
  in
  (* slab overflow: 5 code symbols > capacity 4 *)
  check_falls_back "code overflow"
    [
      obj "A"
        [
          code "a1";
          code ~global:false "a2";
          code ~global:false "x1";
          code ~global:false "x2";
          code ~global:false "x3";
        ];
      obj "B" [ code "b1"; data ~relocs:[ (0, "a1") ] "btab" ];
    ];
  (* data overflow: past the 64-byte data slab *)
  check_falls_back "data overflow"
    [
      obj "A" [ code "a1"; code ~global:false "a2"; data ~size:80 "atab" ];
      obj "B" [ code "b1"; data ~relocs:[ (0, "a1") ] "btab" ];
    ];
  (* exported symbol set changed: a2 goes global *)
  check_falls_back "export change"
    [
      obj "A" [ code "a1"; code "a2"; data "atab" ];
      obj "B" [ code "b1"; data ~relocs:[ (0, "a1") ] "btab" ];
    ];
  (* changed object list (new object) must relink fully *)
  let t = Incr.create () in
  ignore (Incr.relink t ~changed:[] (objs_v1 ()));
  let objs3 = objs_v1 () @ [ obj "C" [ code "c1" ] ] in
  ignore (Incr.relink t ~changed:[ "C" ] objs3);
  Alcotest.(check bool) "object-list change is full" false
    (Incr.last t).Incr.ls_incremental;
  (* incremental:false forces the full path even with clean state *)
  let t = Incr.create () in
  ignore (Incr.relink t ~changed:[] (objs_v1 ()));
  ignore (Incr.relink ~incremental:false t ~changed:[ "A" ] (objs_v1 ()));
  Alcotest.(check bool) "flag off is full" false (Incr.last t).Incr.ls_incremental

let test_cost_model () =
  let t = Incr.create () in
  ignore (Incr.relink t ~changed:[] (objs_v1 ()));
  let full = Incr.last t in
  Alcotest.(check int) "full cost matches Linker model"
    (2000 + (40 * full.Incr.ls_resolved))
    full.Incr.ls_cost;
  ignore (Incr.relink t ~changed:[ "A" ] (objs_v1 ()));
  let inc = Incr.last t in
  Alcotest.(check int) "patch cost charges work done"
    (200 + (40 * (inc.Incr.ls_symbols_patched + inc.Incr.ls_relocs_patched)))
    inc.Incr.ls_cost;
  Alcotest.(check bool) "patch is cheaper" true (inc.Incr.ls_cost < full.Incr.ls_cost)

(* The link state is keyed by object name, so the persistent link
   refuses two objects that share one; the one-shot link, which keeps
   no state, accepts them. *)
let test_shared_name_refused () =
  let objs = [ obj "m" [ code "f" ]; obj "m" [ code "g" ] ] in
  let t = Incr.create () in
  (match Incr.relink t ~changed:[] objs with
  | _ -> Alcotest.fail "relink accepted two objects named m"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing linked" 0 (Incr.stats t).Incr.st_full;
  let exe = Incr.link objs in
  Alcotest.(check bool) "one-shot link places both" true
    (addr exe "f" <> addr exe "g")

(* ---------------- units: diagnostics ---------------- *)

let message_of f =
  try
    ignore (f ());
    None
  with e -> L.link_error_message e

let test_diagnostics () =
  let dup_text = Some "duplicate symbol @f: defined in A and again in B" in
  let undef_text = Some "undefined symbol @missing (referenced from B)" in
  let fresh what objs want =
    Alcotest.(check (option string)) (what ^ ", one-shot link") want
      (message_of (fun () -> Incr.link objs));
    Alcotest.(check (option string)) (what ^ ", first relink") want
      (message_of (fun () -> Incr.relink (Incr.create ()) ~changed:[] objs))
  in
  fresh "duplicate" [ obj "A" [ code "f" ]; obj "B" [ code "f" ] ] dup_text;
  fresh "undefined"
    [ obj "A" [ code "f" ]; obj ~undef:[ "missing" ] "B" [ code "g" ] ]
    undef_text;
  (* a changed B that collides or cannot resolve: the patch path must
     fall back and the full link raise the diagnostic *)
  let after_change what objs1 objs2 want =
    let t = Incr.create () in
    ignore (Incr.relink t ~changed:[] objs1);
    Alcotest.(check (option string)) (what ^ " after change") want
      (message_of (fun () -> Incr.relink t ~changed:[ "B" ] objs2));
    Alcotest.(check int) (what ^ ": counted as fallback") 1
      (Incr.stats t).Incr.st_fallbacks
  in
  after_change "duplicate"
    [ obj "A" [ code "f" ]; obj "B" [ code "g" ] ]
    [ obj "A" [ code "f" ]; obj "B" [ code "g"; code ~global:false "f" ] ]
    dup_text;
  after_change "undefined" (objs_v1 ())
    [
      obj "A" [ code "a1"; code ~global:false "a2"; data "atab" ];
      obj ~undef:[ "missing" ] "B" [ code "b1"; data ~relocs:[ (0, "a1") ] "btab" ];
    ]
    undef_text;
  (* one name defined twice inside the changed object *)
  after_change "defined twice"
    [ obj "A" [ code "f" ]; obj "B" [ code "g"; code ~global:false "h" ] ]
    [
      obj "A" [ code "f" ];
      obj "B" [ code "g"; code ~global:false "h"; code ~global:false "h" ];
    ]
    (Some "duplicate symbol @h: defined in B and again in B")

(* ---------------- units: torn-patch detection ---------------- *)

let test_torn_patch_detected () =
  let t = Incr.create () in
  ignore (Incr.relink t ~changed:[] (objs_v1 ()));
  let before = exe_obs (Incr.relink t ~changed:[] (objs_v1 ())) in
  let msg =
    try
      Fault.with_plan
        (Fault.plan ~seed:1 [ Fault.rule "link.patch" Fault.Torn ])
        (fun () -> ignore (Incr.relink t ~changed:[ "A" ] (objs_v1 ())));
      None
    with L.Link_error m -> Some m
  in
  (match msg with
  | Some m ->
    Alcotest.(check bool) "names the torn patch" true
      (String.length m >= 19 && String.sub m 0 19 = "torn patch detected")
  | None -> Alcotest.fail "torn patch was not detected");
  (* the failed patch never committed: the old exe still serves and a
     clean retry succeeds with identical output *)
  let retry = Incr.relink t ~changed:[ "A" ] (objs_v1 ()) in
  Alcotest.(check bool) "clean retry patches" true (Incr.last t).Incr.ls_incremental;
  Alcotest.(check bool) "retry identical to pre-fault state" true
    (exe_obs retry = before)

(* ---------------- equivalence: 200-toggle storm ---------------- *)

let storm_src =
  {|
static int f0(int x) { if (x > 3) return x * 2; return x + 1; }
static int f1(int x) { int a = 0; for (int i = 0; i < 3; i++) a = a + f0(x + i); return a; }
static int f2(int x) { if ((x & 1) == 0) return f1(x); return f1(x + 1); }
static int f3(int x) { return f2(x) + f0(x); }
static int f4(int x) { int a = 0; while (x > 0) { a = a + f3(x); x = x - 7; } return a; }
int main(int x) { return f4(x) + f2(x + 5); }
|}

let storm_inputs = [ 0L; 1L; 5L; 17L; 50L ]

let mk_storm_session ~incremental ~pool () =
  let m = Minic.Lower.compile storm_src in
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~pool ~incremental_link:incremental m
  in
  ignore (Odin.Cov.setup session);
  ignore (Odin.Session.build session);
  session

(* (exe image + symbol table, per-input return/cycle trace) after the
   current refresh: everything the VM can observe. *)
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

(* Deterministic LCG so the storm replays identically everywhere. *)
let lcg seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state

let run_storm ~rounds ~pool =
  let inc = mk_storm_session ~incremental:true ~pool () in
  let full = mk_storm_session ~incremental:false ~pool () in
  let rand = lcg 20240806 in
  let states = ref [ (observe inc, observe full) ] in
  for _ = 1 to rounds do
    (* toggle a pseudo-random subset of probes, same on both sessions *)
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
  (* the storm must actually exercise the patch path *)
  let st = Incr.stats inc.Odin.Session.linker in
  Alcotest.(check bool)
    (Printf.sprintf "patch path used (%d/%d)" st.Incr.st_incremental rounds)
    true
    (st.Incr.st_incremental > rounds / 2);
  Alcotest.(check int) "full session never patched" 0
    (Incr.stats full.Odin.Session.linker).Incr.st_incremental;
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
  Alcotest.run "relink"
    [
      ( "slabs",
        [
          Alcotest.test_case "one-shot layout" `Quick test_one_shot_layout;
          Alcotest.test_case "capacity policy" `Quick test_capacity_policy;
          Alcotest.test_case "layout + address stability" `Quick
            test_slab_layout_and_stability;
          Alcotest.test_case "growth + reverse reloc index" `Quick
            test_growth_within_slab_and_reverse_index;
          Alcotest.test_case "fallback triggers" `Quick test_fallback_triggers;
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "shared object name refused" `Quick
            test_shared_name_refused;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "literal texts, fresh and after change" `Quick
            test_diagnostics;
          Alcotest.test_case "torn patch detected" `Quick test_torn_patch_detected;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "200-toggle storm, jobs 1/2/4" `Slow
            test_storm_equivalence;
        ] );
    ]

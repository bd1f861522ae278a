(** Sanitizer-style check probes (the paper's future-work Section 7):
    UBSan-like division checks and ASan-lite load checks, expressed as
    Odin probes so that hot checks (ASAP) or falsely-firing checks
    (UBSan-with-fuzzing) can be removed mid-campaign with a recompile.

    A check compiles to a call to the runtime inspector before the
    guarded instruction; the runtime counts trips and flags violations.
    (A production sanitizer would branch inline; the call form exercises
    the same probe lifecycle with a comparable per-check cost.) *)

let div_fn = "__odin_check_div"
let load_fn = "__odin_check_load"

type violation = { v_pid : int; v_value : int64 }

type t = {
  session : Session.t;
  mutable violations : violation list;
  mutable trips : int;
}

let insert_check names (fn : Ir.Func.t) (cloned : Ir.Ins.ins) pid =
  let guarded =
    match cloned.Ir.Ins.kind with
    | Ir.Ins.Binop ((Ir.Ins.Sdiv | Ir.Ins.Udiv | Ir.Ins.Srem | Ir.Ins.Urem), _, divisor)
      ->
      Some (div_fn, divisor)
    | Ir.Ins.Load ptr -> Some (load_fn, ptr)
    | _ -> None
  in
  match guarded with
  | None -> ()
  | Some (callee, watched) -> (
    let host =
      List.find_opt
        (fun (b : Ir.Func.block) -> List.memq cloned b.Ir.Func.insns)
        fn.Ir.Func.blocks
    in
    match host with
    | None -> ()
    | Some blk ->
      let watched64, pre =
        match Ir.Ins.value_ty watched with
        | Ir.Types.I64 | Ir.Types.Ptr -> (watched, [])
        | _ ->
          let name = Cmplog.gensym (names fn) ~pid "chkarg" in
          ( Ir.Ins.Reg (Ir.Types.I64, name),
            [
              Ir.Ins.mk ~volatile:true ~id:name ~ty:Ir.Types.I64
                (Ir.Ins.Cast (Ir.Ins.Sext, watched));
            ] )
      in
      let call =
        Ir.Ins.mk ~volatile:true ~id:"" ~ty:Ir.Types.Void
          (Ir.Ins.Call (Ir.Ins.Direct callee, [ Ir.Builder.i64 pid; watched64 ]))
      in
      let rec insert_before = function
        | [] -> pre @ [ call ]
        | i :: rest when i == cloned -> pre @ (call :: i :: rest)
        | i :: rest -> i :: insert_before rest
      in
      blk.Ir.Func.insns <- insert_before blk.Ir.Func.insns)

let patch (sched : Session.sched) =
  let names = Ir.Func.namer () in
  List.iter
    (fun (p : Instr.Probe.t) ->
      match p.Instr.Probe.payload with
      | Instr.Probe.Check c -> (
        match
          ( Session.map_func sched p.Instr.Probe.target,
            Session.map_ins sched c.Instr.Probe.chk_ins )
        with
        | Some fn, Some cloned -> insert_check names fn cloned p.Instr.Probe.pid
        | _ -> ())
      | _ -> ())
    sched.Session.active

(** One probe per division (always) and, with [loads:true], per load. *)
let setup ?(loads = false) (session : Session.t) =
  let t = { session; violations = []; trips = 0 } in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_insns
        (fun (i : Ir.Ins.ins) ->
          let kind =
            match i.Ir.Ins.kind with
            | Ir.Ins.Binop ((Ir.Ins.Sdiv | Ir.Ins.Udiv | Ir.Ins.Srem | Ir.Ins.Urem), _, _)
              ->
              Some Instr.Probe.Div_by_zero
            | Ir.Ins.Load _ when loads -> Some Instr.Probe.Load_in_bounds
            | _ -> None
          in
          match kind with
          | Some chk_kind when not i.Ir.Ins.volatile ->
            ignore
              (Instr.Manager.add session.Session.manager ~target:f.Ir.Func.name
                 (Instr.Probe.Check { chk_ins = i; chk_kind; chk_trips = 0 }))
          | _ -> ())
        f)
    (Ir.Modul.defined_functions session.Session.base);
  let declare name =
    ignore
      (Ir.Modul.declare_function session.Session.base ~name
         ~params:[ (Ir.Types.I64, "pid"); (Ir.Types.I64, "value") ]
         ~ret:Ir.Types.Void)
  in
  declare div_fn;
  declare load_fn;
  Session.add_host_symbol session div_fn;
  Session.add_host_symbol session load_fn;
  Session.add_patcher session patch;
  t

(** Host hooks to register with the VM (both runtime functions). *)
let host_hooks t =
  let record is_div vm =
    let pid = Int64.to_int Vm.(vm.regs.(0)) in
    let value = Vm.(vm.regs.(1)) in
    t.trips <- t.trips + 1;
    (match Instr.Manager.get t.session.Session.manager pid with
    | Some { Instr.Probe.payload = Instr.Probe.Check c; _ } ->
      c.Instr.Probe.chk_trips <- c.Instr.Probe.chk_trips + 1
    | _ -> ());
    if is_div && Int64.equal value 0L then
      t.violations <- { v_pid = pid; v_value = value } :: t.violations;
    0L
  in
  [ (div_fn, record true); (load_fn, record false) ]

(** ASAP-style hot-check removal: drop checks whose trip count exceeds
    [threshold] (hot checks rarely catch bugs; their cost dominates).
    Returns the number removed. *)
let prune_hot ?(threshold = 100) t =
  let hot =
    List.filter
      (fun (p : Instr.Probe.t) ->
        match p.Instr.Probe.payload with
        | Instr.Probe.Check c -> c.Instr.Probe.chk_trips > threshold
        | _ -> false)
      (Instr.Manager.to_list t.session.Session.manager)
  in
  List.iter (Instr.Manager.remove t.session.Session.manager) hot;
  List.length hot

(** Execution engine: runs linked machine code with per-instruction cycle
    accounting. Every "execution duration" in the reproduced figures is a
    cycle count from this VM, so results are deterministic and
    hardware-independent while preserving relative costs. A VM runs on
    the executable it was created with; a relink reaches the next VM.

    The engine exposes a block-entry hook, which is how the dynamic-
    binary-instrumentation baselines (DrCov, libInst) charge their
    translation/dispatch/trampoline costs without touching the code. *)

open Codegen.Mach

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

(** One inline-counter site's attribution: how many times the counter
    increment at a given data address executed, and the VM cycles it
    cost. The address identifies the site (the instrumentation layer
    maps it back to a probe id — e.g. {!Odin.Cov} counters live at
    [__odin_counters + pid]). *)
type inc_site = {
  mutable is_hits : int;
  mutable is_cycles : int;
}

(** Optional execution profile: cycle attribution per function plus
    block/probe/call hit counts. Pure observation — enabling a profile
    never changes [cycles], [steps] or execution results; the same
    cycle increments are simply mirrored into the per-function table. *)
type profile = {
  mutable pr_block_hits : int;  (** basic-block entries *)
  mutable pr_probe_hits : int;  (** inline counter increments executed *)
  mutable pr_calls : int;  (** guest-to-guest calls dispatched *)
  mutable pr_host_calls : int;  (** host function calls *)
  pr_fn_cycles : (string, int ref) Hashtbl.t;  (** cycles per function *)
  pr_fn_blocks : (string, int ref) Hashtbl.t;  (** block entries per function *)
  pr_inc_sites : (int, inc_site) Hashtbl.t;
      (** per-counter-address attribution, keyed by the increment's
          target data address *)
}

type t = {
  exe : Link.Linker.exe;
  mem : Bytes.t;
  regs : int64 array;
  mutable cycles : int;
  mutable steps : int;
  max_steps : int;
  mutable budget_hit : bool;
      (** the last {!Fault} was step-budget exhaustion, not a genuine
          trap — lets callers classify "ran too long" (a timeout
          verdict) apart from "crashed" without parsing the message *)
  host : (string, t -> int64) Hashtbl.t;
      (** host functions read args from regs r0..r5, return the result *)
  mutable host_cost : int;  (** default cycles charged per host call *)
  mutable block_hook : (t -> string -> int -> unit) option;
      (** called on block entry with (function name, block index) *)
  mutable stack_base : int;
  mutable prof : profile option;
}

let mem_size = 1 lsl 20 (* 1 MiB; data starts at 256 KiB, stack at the top *)

let create ?(max_steps = 200_000_000) exe =
  let vm =
    {
      exe;
      mem = Bytes.make mem_size '\x00';
      regs = Array.make num_phys 0L;
      cycles = 0;
      steps = 0;
      max_steps;
      budget_hit = false;
      host = Hashtbl.create 8;
      host_cost = 10;
      block_hook = None;
      stack_base = mem_size - 16;
      prof = None;
    }
  in
  (* load the data image *)
  List.iter
    (fun (base, bytes) ->
      if base + Bytes.length bytes > mem_size then fault "data image too large";
      Bytes.blit bytes 0 vm.mem base (Bytes.length bytes))
    exe.Link.Linker.image;
  vm

let register_host vm name fn = Hashtbl.replace vm.host name fn

let set_block_hook vm hook = vm.block_hook <- Some hook
let add_cycles vm n = vm.cycles <- vm.cycles + n

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let enable_profile vm =
  match vm.prof with
  | Some p -> p
  | None ->
    let p =
      {
        pr_block_hits = 0;
        pr_probe_hits = 0;
        pr_calls = 0;
        pr_host_calls = 0;
        pr_fn_cycles = Hashtbl.create 32;
        pr_fn_blocks = Hashtbl.create 32;
        pr_inc_sites = Hashtbl.create 64;
      }
    in
    vm.prof <- Some p;
    p

let profile vm = vm.prof

let bump table key n =
  match Hashtbl.find_opt table key with
  | Some cell -> cell := !cell + n
  | None -> Hashtbl.replace table key (ref n)

(** Per-function cycle attribution, heaviest first (ties by name). *)
let profile_top p =
  Hashtbl.fold (fun fn c acc -> (fn, !c) :: acc) p.pr_fn_cycles []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match compare c2 c1 with 0 -> compare n1 n2 | c -> c)

(** Per-function block-entry counts, busiest first (ties by name). *)
let profile_blocks p =
  Hashtbl.fold (fun fn c acc -> (fn, !c) :: acc) p.pr_fn_blocks []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match compare c2 c1 with 0 -> compare n1 n2 | c -> c)

(** Per-site inline-counter attribution as (address, hits, cycles),
    ascending by address — deterministic for a deterministic run. *)
let profile_inc_sites p =
  Hashtbl.fold (fun addr s acc -> (addr, s.is_hits, s.is_cycles) :: acc)
    p.pr_inc_sites []
  |> List.sort compare

let addr_of vm name = Link.Linker.addr_of vm.exe name

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let check _vm addr width =
  let a = Int64.to_int addr in
  if a < 0 || a + width > mem_size then fault "memory fault at 0x%Lx" addr;
  a

let load_mem vm ty addr =
  let width = Ir.Types.size_of ty in
  let a = check vm addr width in
  let raw =
    match width with
    | 1 -> Int64.of_int (Char.code (Bytes.get vm.mem a))
    | 2 -> Int64.of_int (Bytes.get_uint16_le vm.mem a)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le vm.mem a)
    | 8 -> Bytes.get_int64_le vm.mem a
    | _ -> fault "load width %d" width
  in
  Ir.Types.normalize ty raw

let store_mem vm ty addr v =
  let width = Ir.Types.size_of ty in
  let a = check vm addr width in
  match width with
  | 1 -> Bytes.set vm.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le vm.mem a (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le vm.mem a (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le vm.mem a v
  | _ -> fault "store width %d" width

(** Reserve a region below the stack and copy [bytes] into it; returns its
    address. Used to hand fuzzing inputs to the program. *)
let write_buffer vm bytes =
  let size = (max 1 (String.length bytes) + 15) / 16 * 16 in
  vm.stack_base <- vm.stack_base - size;
  Bytes.blit_string bytes 0 vm.mem vm.stack_base (String.length bytes);
  Int64.of_int vm.stack_base

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let operand vm = function
  | Oreg r -> vm.regs.(r)
  | Oimm v -> v
  | Osym (s, add) -> Int64.add (addr_of vm s) (Int64.of_int add)

let eaddr vm = function
  | Abase (r, off) -> Int64.add vm.regs.(r) (Int64.of_int off)
  | Asym (s, off) -> Int64.add (addr_of vm s) (Int64.of_int off)
  | Aslot _ -> fault "unresolved frame slot at execution"

(* block-index lookup: is [pc] the start of a block in [mf]? *)
let block_at (mf : mfunc) pc =
  let rec go i =
    if i >= Array.length mf.mf_blocks then None
    else begin
      let start, _ = mf.mf_blocks.(i) in
      if start = pc then Some i else if start > pc then None else go (i + 1)
    end
  in
  go 0

let enter_block vm (mf : mfunc) pc =
  (* fault site for killing a guest execution mid-flight (farm
     robustness tests); free when no plan targets it *)
  Support.Fault.hit "vm.step";
  (match vm.prof with
  | Some p when block_at mf pc <> None ->
    p.pr_block_hits <- p.pr_block_hits + 1;
    bump p.pr_fn_blocks mf.mf_name 1
  | _ -> ());
  match vm.block_hook with
  | None -> ()
  | Some hook -> (
    match block_at mf pc with
    | Some idx -> hook vm mf.mf_name idx
    | None -> ())

type frame = { fr_fn : mfunc; fr_pc : int }

(** Call [fname] with up to 6 integer arguments; returns r0. *)
let call vm fname args =
  let entry =
    match Link.Linker.find_func vm.exe fname with
    | Some mf -> mf
    | None -> fault "call to unknown function @%s" fname
  in
  if List.length args > max_reg_args then fault "too many arguments";
  List.iteri (fun i v -> vm.regs.(i) <- v) args;
  vm.regs.(reg_sp) <- Int64.of_int vm.stack_base;
  let stack : frame list ref = ref [] in
  let depth = ref 0 in (* List.length !stack, kept O(1) *)
  let cur = ref entry in
  let pc = ref 0 in
  let running = ref true in
  enter_block vm entry 0;
  let dispatch_call name ret_pc =
    match Link.Linker.find_func vm.exe name with
    | Some mf ->
      stack := { fr_fn = !cur; fr_pc = ret_pc } :: !stack;
      incr depth;
      if !depth > 4096 then fault "call stack overflow";
      (match vm.prof with Some p -> p.pr_calls <- p.pr_calls + 1 | None -> ());
      cur := mf;
      pc := 0;
      enter_block vm mf 0
    | None -> (
      match Hashtbl.find_opt vm.host name with
      | Some h ->
        vm.cycles <- vm.cycles + vm.host_cost;
        (match vm.prof with
        | Some p ->
          p.pr_host_calls <- p.pr_host_calls + 1;
          (* the host call's cycles are charged to the calling function *)
          bump p.pr_fn_cycles (!cur).mf_name vm.host_cost
        | None -> ());
        vm.regs.(reg_ret) <- h vm;
        pc := ret_pc
      | None -> fault "call to undefined symbol @%s" name)
  in
  while !running do
    let mf = !cur in
    let code = mf.mf_code in
    if !pc < 0 || !pc >= Array.length code then
      fault "pc out of range in @%s" mf.mf_name;
    let inst = code.(!pc) in
    vm.steps <- vm.steps + 1;
    if vm.steps > vm.max_steps then begin
      vm.budget_hit <- true;
      fault "cycle budget exhausted"
    end;
    vm.cycles <- vm.cycles + cost inst;
    (match vm.prof with
    | Some p ->
      bump p.pr_fn_cycles mf.mf_name (cost inst);
      (* inline counter increments are the compiled form of probes *)
      (match inst with
      | Mincmem _ -> p.pr_probe_hits <- p.pr_probe_hits + 1
      | _ -> ())
    | None -> ());
    (match inst with
    | Mmov (d, o) ->
      vm.regs.(d) <- operand vm o;
      incr pc
    | Mbin (op, ty, d, s, o) ->
      (match Ir.Eval.binop ty op vm.regs.(s) (operand vm o) with
      | Some r -> vm.regs.(d) <- r
      | None -> fault "division by zero in @%s" mf.mf_name);
      incr pc
    | Mcmp (p, ty, d, s, o) ->
      vm.regs.(d) <- Ir.Eval.icmp ty p vm.regs.(s) (operand vm o);
      incr pc
    | Mcmov (d, c, s) ->
      if vm.regs.(c) <> 0L then vm.regs.(d) <- vm.regs.(s);
      incr pc
    | Mld (ty, d, a) ->
      vm.regs.(d) <- load_mem vm ty (eaddr vm a);
      incr pc
    | Mst (ty, s, a) ->
      store_mem vm ty (eaddr vm a) vm.regs.(s);
      incr pc
    | Mincmem (ty, a) ->
      let addr = eaddr vm a in
      (match vm.prof with
      | Some p ->
        (* per-site attribution: charge this increment's cycles to its
           counter address, so instrumentation cost can be broken down
           per probe *)
        let site =
          match Hashtbl.find_opt p.pr_inc_sites (Int64.to_int addr) with
          | Some s -> s
          | None ->
            let s = { is_hits = 0; is_cycles = 0 } in
            Hashtbl.replace p.pr_inc_sites (Int64.to_int addr) s;
            s
        in
        site.is_hits <- site.is_hits + 1;
        site.is_cycles <- site.is_cycles + cost inst
      | None -> ());
      store_mem vm ty addr (Int64.add (load_mem vm ty addr) 1L);
      incr pc
    | Mlea (d, a) ->
      vm.regs.(d) <- eaddr vm a;
      incr pc
    | Mjmp t ->
      pc := t;
      enter_block vm mf t
    | Mjnz (r, t) ->
      if vm.regs.(r) <> 0L then begin
        pc := t;
        enter_block vm mf t
      end
      else begin
        incr pc;
        enter_block vm mf !pc
      end
    | Mjtab (r, cases, d) ->
      let key = vm.regs.(r) in
      let target = ref d in
      (try
         Array.iter
           (fun (k, t) ->
             if Int64.equal k key then begin
               target := t;
               raise Exit
             end)
           cases
       with Exit -> ());
      pc := !target;
      enter_block vm mf !target
    | Mcall name -> dispatch_call name (!pc + 1)
    | Mcallr r -> (
      let addr = vm.regs.(r) in
      match Hashtbl.find_opt vm.exe.Link.Linker.fn_at_addr addr with
      | Some name -> dispatch_call name (!pc + 1)
      | None -> (
        match Hashtbl.find_opt vm.exe.Link.Linker.host_at_addr addr with
        | Some name -> dispatch_call name (!pc + 1)
        | None -> fault "indirect call to 0x%Lx (not a function)" addr))
    | Mret -> (
      match !stack with
      | [] -> running := false
      | fr :: rest ->
        stack := rest;
        decr depth;
        cur := fr.fr_fn;
        pc := fr.fr_pc)
    | Mpush r ->
      vm.regs.(reg_sp) <- Int64.sub vm.regs.(reg_sp) 8L;
      store_mem vm Ir.Types.I64 vm.regs.(reg_sp) vm.regs.(r);
      incr pc
    | Mpop r ->
      vm.regs.(r) <- load_mem vm Ir.Types.I64 vm.regs.(reg_sp);
      vm.regs.(reg_sp) <- Int64.add vm.regs.(reg_sp) 8L;
      incr pc
    | Mspadj n ->
      vm.regs.(reg_sp) <- Int64.add vm.regs.(reg_sp) (Int64.of_int n);
      incr pc)
  done;
  vm.regs.(reg_ret)

(** Reset the per-run counters (memory and globals keep their state). *)
let reset_counters vm =
  vm.cycles <- 0;
  vm.steps <- 0;
  vm.budget_hit <- false

(** Did the last {!Fault} come from step-budget exhaustion? Distinguishes
    a mutant (or program) that ran too long — a deterministic timeout
    verdict — from one that genuinely trapped. *)
let budget_exhausted vm = vm.budget_hit

(** The farm's wire protocol: length-prefixed, versioned, checksummed
    binary frames over pipes between the supervisor and its worker
    processes, plus the campaign checkpoint file (which reuses the
    frame format, so a checkpoint torn by a crash mid-write is detected
    exactly like a frame torn by a crashed peer).

    {2 Frame layout}

    {v
    offset  size  field
    0       4     magic  "ODNW"
    4       1     protocol version (1)
    5       1     message tag
    6       4     payload length, u32 LE
    10      4     checksum: first 4 bytes of the payload's MD5
    14      len   payload
    v}

    Any violation — bad magic, unknown version or tag, length running
    past the available bytes (a torn frame: the peer died mid-write),
    checksum mismatch, malformed payload — raises {!Wire_error} with a
    description; it never crashes the reader or yields a half-decoded
    message. The protocol version is bumped on any layout change, so a
    supervisor and worker from different builds refuse each other
    cleanly instead of misparsing.

    Scalars are little-endian; ints travel as 64-bit (OCaml ints are
    63-bit, so this is lossless), floats as their IEEE bits, strings
    and lists length-prefixed.

    Fault site ["wire.send"]: an injected fault raises before any byte
    is written; the torn kind writes only the first half of the frame
    and then raises, so the peer observes exactly what a worker killed
    mid-send would produce. *)

exception Wire_error of string

let magic = "ODNW"

(* v2: the Blob envelope frame (tag 9) joined the protocol, carrying
   satellite protocols — the mutation campaign — without Wire depending
   on their libraries.
   v3: tiered compilation — Init carries the promotion threshold
   (workers derive their tiering from it), Assign carries the
   barrier-merged per-function cycle profile promotions are decided
   from, and the checkpoint payload moved to ckpt v2.
   v4: Init dropped the incremental link/scheduler mode fields. *)
let version = 4
let header_len = 14

let fail fmt = Printf.ksprintf (fun m -> raise (Wire_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Scalar codecs                                                       *)
(* ------------------------------------------------------------------ *)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let w_u32 b n =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let w_i64 b n =
  let n = Int64.of_int n in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xFFL)))
  done

(* floats travel as their raw IEEE bits (Int64.to_int would truncate
   the top bit, so they get their own 8-byte writer) *)
let w_f64 b x =
  let n = Int64.bits_of_float x in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xFFL)))
  done

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_opt b f = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    f b v

let w_list b f l =
  w_u32 b (List.length l);
  List.iter (f b) l

type cursor = { data : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.data then fail "truncated payload"

let r_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u32 c =
  need c 4;
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
  done;
  c.pos <- c.pos + 4;
  !v

let r_i64raw c =
  need c 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let r_i64 c = Int64.to_int (r_i64raw c)
let r_f64 c = Int64.float_of_bits (r_i64raw c)

let r_str c =
  let n = r_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let r_opt c f = match r_u8 c with 0 -> None | 1 -> Some (f c) | n -> fail "bad option tag %d" n

let r_list c f =
  let n = r_u32 c in
  List.init n (fun _ -> f c)

(* ------------------------------------------------------------------ *)
(* Domain codecs                                                       *)
(* ------------------------------------------------------------------ *)

let w_mode b (m : Odin.Partition.mode) =
  w_u8 b (match m with Odin.Partition.One -> 0 | Odin.Partition.Auto -> 1 | Odin.Partition.Max -> 2)

let r_mode c =
  match r_u8 c with
  | 0 -> Odin.Partition.One
  | 1 -> Odin.Partition.Auto
  | 2 -> Odin.Partition.Max
  | n -> fail "bad partition mode %d" n

let w_item b (it : Csync.item) =
  w_i64 b it.Csync.it_index;
  w_str b it.Csync.it_input;
  w_i64 b it.Csync.it_cycles;
  w_list b w_i64 it.Csync.it_fired;
  w_list b
    (fun b (s, n) ->
      w_str b s;
      w_i64 b n)
    it.Csync.it_fns;
  w_list b
    (fun b (pid, h, cy) ->
      w_i64 b pid;
      w_i64 b h;
      w_i64 b cy)
    it.Csync.it_probe_cost

let r_item c =
  let it_index = r_i64 c in
  let it_input = r_str c in
  let it_cycles = r_i64 c in
  let it_fired = r_list c r_i64 in
  let it_fns =
    r_list c (fun c ->
        let s = r_str c in
        let n = r_i64 c in
        (s, n))
  in
  let it_probe_cost =
    r_list c (fun c ->
        let pid = r_i64 c in
        let h = r_i64 c in
        let cy = r_i64 c in
        (pid, h, cy))
  in
  { Csync.it_index; it_input; it_cycles; it_fired; it_fns; it_probe_cost }

let w_centry b (ce : Orch.centry) =
  w_str b ce.Orch.ce_input;
  w_i64 b ce.Orch.ce_energy;
  w_i64 b ce.Orch.ce_cycles;
  w_i64 b ce.Orch.ce_fresh

let r_centry c =
  let ce_input = r_str c in
  let ce_energy = r_i64 c in
  let ce_cycles = r_i64 c in
  let ce_fresh = r_i64 c in
  { Orch.ce_input; ce_energy; ce_cycles; ce_fresh }

let w_ckpt b (ck : Orch.ckpt) =
  w_i64 b ck.Orch.ck_version;
  w_str b ck.ck_digest;
  w_i64 b ck.ck_seed;
  w_i64 b ck.ck_workers;
  w_i64 b ck.ck_interval_base;
  w_i64 b ck.ck_n_probes;
  w_i64 b ck.ck_round;
  w_i64 b ck.ck_next;
  w_str b ck.ck_bitmap;
  w_list b w_str ck.ck_seen;
  w_i64 b ck.ck_offered;
  w_i64 b ck.ck_accepted;
  w_i64 b ck.ck_duplicates;
  w_i64 b ck.ck_stale;
  w_list b
    (fun b (pid, n) ->
      w_i64 b pid;
      w_i64 b n)
    ck.ck_votes;
  w_list b w_i64 ck.ck_pruned;
  w_list b w_centry ck.ck_corpus;
  w_i64 b ck.ck_execs;
  w_i64 b ck.ck_cycles;
  w_i64 b ck.ck_rounds;
  w_list b
    (fun b (pid, n) ->
      w_i64 b pid;
      w_i64 b n)
    ck.ck_execs_armed;
  w_list b
    (fun b (pid, h, cy) ->
      w_i64 b pid;
      w_i64 b h;
      w_i64 b cy)
    ck.ck_probe_cost;
  w_list b
    (fun b (fn, cy) ->
      w_str b fn;
      w_i64 b cy)
    ck.ck_fn_cycles;
  w_i64 b ck.ck_interval;
  w_i64 b ck.ck_quiet;
  w_i64 b ck.ck_skipped;
  w_i64 b ck.ck_crashes;
  w_i64 b ck.ck_recompiles;
  w_i64 b ck.ck_restarts;
  w_i64 b ck.ck_gc_evicted

let r_ckpt c =
  let ck_version = r_i64 c in
  if ck_version <> Orch.ckpt_version then
    fail "checkpoint version %d, expected %d" ck_version Orch.ckpt_version;
  let ck_digest = r_str c in
  let ck_seed = r_i64 c in
  let ck_workers = r_i64 c in
  let ck_interval_base = r_i64 c in
  let ck_n_probes = r_i64 c in
  let ck_round = r_i64 c in
  let ck_next = r_i64 c in
  let ck_bitmap = r_str c in
  let ck_seen = r_list c r_str in
  let ck_offered = r_i64 c in
  let ck_accepted = r_i64 c in
  let ck_duplicates = r_i64 c in
  let ck_stale = r_i64 c in
  let ck_votes =
    r_list c (fun c ->
        let pid = r_i64 c in
        let n = r_i64 c in
        (pid, n))
  in
  let ck_pruned = r_list c r_i64 in
  let ck_corpus = r_list c r_centry in
  let ck_execs = r_i64 c in
  let ck_cycles = r_i64 c in
  let ck_rounds = r_i64 c in
  let ck_execs_armed =
    r_list c (fun c ->
        let pid = r_i64 c in
        let n = r_i64 c in
        (pid, n))
  in
  let ck_probe_cost =
    r_list c (fun c ->
        let pid = r_i64 c in
        let h = r_i64 c in
        let cy = r_i64 c in
        (pid, h, cy))
  in
  let ck_fn_cycles =
    r_list c (fun c ->
        let fn = r_str c in
        let cy = r_i64 c in
        (fn, cy))
  in
  let ck_interval = r_i64 c in
  let ck_quiet = r_i64 c in
  let ck_skipped = r_i64 c in
  let ck_crashes = r_i64 c in
  let ck_recompiles = r_i64 c in
  let ck_restarts = r_i64 c in
  let ck_gc_evicted = r_i64 c in
  {
    Orch.ck_version;
    ck_digest;
    ck_seed;
    ck_workers;
    ck_interval_base;
    ck_n_probes;
    ck_round;
    ck_next;
    ck_bitmap;
    ck_seen;
    ck_offered;
    ck_accepted;
    ck_duplicates;
    ck_stale;
    ck_votes;
    ck_pruned;
    ck_corpus;
    ck_execs;
    ck_cycles;
    ck_rounds;
    ck_execs_armed;
    ck_probe_cost;
    ck_fn_cycles;
    ck_interval;
    ck_quiet;
    ck_skipped;
    ck_crashes;
    ck_recompiles;
    ck_restarts;
    ck_gc_evicted;
  }

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(** The supervisor's bootstrap frame: everything a worker process needs
    to build its session — the target module travels as printed IR
    (print→parse round-trips structurally). *)
type init = {
  in_id : int;
  in_seed : int;
  in_mode : Odin.Partition.mode;
  in_entry : string;
  in_host : string list;
  in_seeds : string list;
  in_mod_name : string;
  in_mod_text : string;
  in_cache_dir : string option;
  in_promote_share : float;
      (** > 0: run the worker's session tiered; the threshold it feeds
          to [Odin.Session.promote_hot] each round. 0.0: untiered. *)
}

(** One round's work order. Carries the {e full} global corpus replica
    and pruned set — workers are stateless between rounds, which is
    what makes kill-and-restart trivially deterministic: re-sending
    the same assignment reproduces the same items. *)
type assign = {
  as_round : int;
  as_slots : int list;
  as_corpus : Orch.centry list;  (** acceptance order *)
  as_pruned : int list;  (** ascending *)
  as_fn_cycles : (string * int) list;
      (** barrier-merged global cycle profile, heaviest first; a tiered
          worker re-derives the cumulative promotion set from it
          ([promote_hot] is idempotent), so a freshly restarted worker
          catches up on every promotion it missed *)
}

(** One round's results: the items for the assigned slots (slot order)
    plus the worker's substrate counters for this assignment. *)
type items = {
  im_round : int;
  im_items : Csync.item list;
  im_skipped : int;
  im_crashes : int;
  im_recompiles : int;
}

type msg =
  | Init of init
  | Ready of { rd_id : int; rd_n_probes : int }
  | Assign of assign
  | Heartbeat of { hb_round : int; hb_done : int }
  | Items of items
  | Died of string  (** worker-side graceful fault report *)
  | Shutdown
  | Checkpoint of Orch.ckpt
  | Blob of { bl_kind : string; bl_data : string }
      (** envelope for satellite protocols (the mutation campaign):
          [bl_kind] names the sub-protocol message, [bl_data] is its
          payload encoded with the {!Codec} primitives by a layer above
          Wire — framing, versioning and checksumming stay shared
          without Wire depending on that layer *)

let tag_of = function
  | Init _ -> 1
  | Ready _ -> 2
  | Assign _ -> 3
  | Heartbeat _ -> 4
  | Items _ -> 5
  | Died _ -> 6
  | Shutdown -> 7
  | Checkpoint _ -> 8
  | Blob _ -> 9

let encode_payload b = function
  | Init i ->
    w_i64 b i.in_id;
    w_i64 b i.in_seed;
    w_mode b i.in_mode;
    w_str b i.in_entry;
    w_list b w_str i.in_host;
    w_list b w_str i.in_seeds;
    w_str b i.in_mod_name;
    w_str b i.in_mod_text;
    w_opt b w_str i.in_cache_dir;
    w_f64 b i.in_promote_share
  | Ready { rd_id; rd_n_probes } ->
    w_i64 b rd_id;
    w_i64 b rd_n_probes
  | Assign a ->
    w_i64 b a.as_round;
    w_list b w_i64 a.as_slots;
    w_list b w_centry a.as_corpus;
    w_list b w_i64 a.as_pruned;
    w_list b
      (fun b (fn, cy) ->
        w_str b fn;
        w_i64 b cy)
      a.as_fn_cycles
  | Heartbeat { hb_round; hb_done } ->
    w_i64 b hb_round;
    w_i64 b hb_done
  | Items im ->
    w_i64 b im.im_round;
    w_list b w_item im.im_items;
    w_i64 b im.im_skipped;
    w_i64 b im.im_crashes;
    w_i64 b im.im_recompiles
  | Died reason -> w_str b reason
  | Shutdown -> ()
  | Checkpoint ck -> w_ckpt b ck
  | Blob { bl_kind; bl_data } ->
    w_str b bl_kind;
    w_str b bl_data

let decode_payload tag c =
  match tag with
  | 1 ->
    let in_id = r_i64 c in
    let in_seed = r_i64 c in
    let in_mode = r_mode c in
    let in_entry = r_str c in
    let in_host = r_list c r_str in
    let in_seeds = r_list c r_str in
    let in_mod_name = r_str c in
    let in_mod_text = r_str c in
    let in_cache_dir = r_opt c r_str in
    let in_promote_share = r_f64 c in
    Init
      {
        in_id;
        in_seed;
        in_mode;
        in_entry;
        in_host;
        in_seeds;
        in_mod_name;
        in_mod_text;
        in_cache_dir;
        in_promote_share;
      }
  | 2 ->
    let rd_id = r_i64 c in
    let rd_n_probes = r_i64 c in
    Ready { rd_id; rd_n_probes }
  | 3 ->
    let as_round = r_i64 c in
    let as_slots = r_list c r_i64 in
    let as_corpus = r_list c r_centry in
    let as_pruned = r_list c r_i64 in
    let as_fn_cycles =
      r_list c (fun c ->
          let fn = r_str c in
          let cy = r_i64 c in
          (fn, cy))
    in
    Assign { as_round; as_slots; as_corpus; as_pruned; as_fn_cycles }
  | 4 ->
    let hb_round = r_i64 c in
    let hb_done = r_i64 c in
    Heartbeat { hb_round; hb_done }
  | 5 ->
    let im_round = r_i64 c in
    let im_items = r_list c r_item in
    let im_skipped = r_i64 c in
    let im_crashes = r_i64 c in
    let im_recompiles = r_i64 c in
    Items { im_round; im_items; im_skipped; im_crashes; im_recompiles }
  | 6 -> Died (r_str c)
  | 7 -> Shutdown
  | 8 -> Checkpoint (r_ckpt c)
  | 9 ->
    let bl_kind = r_str c in
    let bl_data = r_str c in
    Blob { bl_kind; bl_data }
  | n -> fail "unknown message tag %d" n

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let checksum payload =
  let d = Digest.string payload in
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v

(** Serialize [msg] into one complete frame. *)
let encode_frame msg =
  let pb = Buffer.create 256 in
  encode_payload pb msg;
  let payload = Buffer.contents pb in
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  w_u8 b version;
  w_u8 b (tag_of msg);
  w_u32 b (String.length payload);
  w_u32 b (checksum payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Parse one frame from [s] at [off]. Returns [None] when the bytes so
   far are a valid prefix of a frame (read more), raises on corruption,
   and returns the message plus the next offset otherwise. *)
let decode_at s off =
  let avail = String.length s - off in
  if avail < header_len then None
  else begin
    if String.sub s off 4 <> magic then fail "bad frame magic";
    let v = Char.code s.[off + 4] in
    if v <> version then fail "wire protocol version %d, expected %d" v version;
    let tag = Char.code s.[off + 5] in
    let plen = ref 0 in
    for i = 3 downto 0 do
      plen := (!plen lsl 8) lor Char.code s.[off + 6 + i]
    done;
    let csum = ref 0 in
    for i = 3 downto 0 do
      csum := (!csum lsl 8) lor Char.code s.[off + 10 + i]
    done;
    if avail < header_len + !plen then None
    else begin
      let payload = String.sub s (off + header_len) !plen in
      if checksum payload <> !csum then fail "frame checksum mismatch";
      let c = { data = payload; pos = 0 } in
      let m = decode_payload tag c in
      if c.pos <> String.length payload then
        fail "trailing garbage in frame payload (tag %d)" tag;
      Some (m, off + header_len + !plen)
    end
  end

(** Decode a string holding exactly one frame (the checkpoint file). *)
let decode_frame s =
  match decode_at s 0 with
  | Some (m, next) when next = String.length s -> m
  | Some _ -> fail "trailing bytes after frame"
  | None -> fail "torn frame: %d bytes" (String.length s)

(* ------------------------------------------------------------------ *)
(* Pipe IO                                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      fail "send: %s" (Unix.error_message e)
  done

(** Send one frame. Fault site ["wire.send"]: an injected fault raises
    before any byte is written; the torn kind writes half the frame and
    raises {!Wire_error} — the peer sees a mid-send crash. *)
let send fd msg =
  Support.Fault.hit "wire.send";
  let frame = encode_frame msg in
  if Support.Fault.torn "wire.send" then begin
    write_all fd (String.sub frame 0 (String.length frame / 2));
    fail "torn frame (injected at wire.send)"
  end
  else write_all fd frame

(** Incremental frame reader over an fd: buffers partial reads, yields
    complete frames. *)
type reader = { rd_fd : Unix.file_descr; mutable rd_pending : string }

let reader fd = { rd_fd = fd; rd_pending = "" }

(** Bytes buffered but not yet consumed (a nonempty value at EOF is a
    torn frame). *)
let pending rd = String.length rd.rd_pending

(** Pull the next complete frame out of the buffer, without reading the
    fd. Raises {!Wire_error} on corruption. *)
let next rd =
  match decode_at rd.rd_pending 0 with
  | None -> None
  | Some (m, off) ->
    rd.rd_pending <-
      String.sub rd.rd_pending off (String.length rd.rd_pending - off);
    Some m

(** One [read] into the buffer. [`Eof] means the peer closed its end;
    if bytes of an incomplete frame are pending, that is a torn frame
    and the caller should treat the peer as crashed. *)
let feed rd =
  let b = Bytes.create 65536 in
  match Unix.read rd.rd_fd b 0 65536 with
  | 0 -> `Eof
  | n ->
    rd.rd_pending <- rd.rd_pending ^ Bytes.sub_string b 0 n;
    `Read n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Read 0
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    `Read 0
  | exception Unix.Unix_error (e, _, _) -> fail "recv: %s" (Unix.error_message e)

(** Blocking receive of one frame ([Wire_error] on EOF or corruption) —
    the worker side's main loop. *)
let recv rd =
  let rec go () =
    match next rd with
    | Some m -> m
    | None -> (
      match feed rd with
      | `Eof ->
        if pending rd > 0 then fail "torn frame: EOF mid-frame (%d bytes)" (pending rd)
        else fail "EOF"
      | `Read _ -> go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Frame files: the farm and mutation checkpoints                      *)
(* ------------------------------------------------------------------ *)

(** Atomically publish [msg] at [path] (tmp + rename via
    {!Support.Fsio}), first rotating any existing file to [path.prev] —
    so at every instant at least one of the two holds a complete frame.
    Fault site ["farm.checkpoint"]: an injected fault skips the write
    (returns [false]); the torn kind leaves a truncated frame at the
    final path, which {!load_frame_file} detects and falls back from. *)
let write_frame_file path msg =
  match Support.Fault.hit "farm.checkpoint" with
  | () ->
    if Sys.file_exists path then
      (try Sys.rename path (path ^ ".prev") with Sys_error _ -> ());
    let data = encode_frame msg in
    if Support.Fault.torn "farm.checkpoint" then begin
      (* simulated kill mid-publish on a non-atomic filesystem *)
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data / 2));
      close_out oc;
      true
    end
    else begin
      Support.Fsio.write_atomic path data;
      true
    end
  | exception (Support.Fault.Injected _ | Support.Fault.Transient_fault _) ->
    false

(* [read path], falling back to [read (path ^ ".prev")] when it raises
   {!Wire_error} or [Sys_error]; [(v, fallback_used)]. *)
let load_with ~what read path =
  match read path with
  | v -> Ok (v, false)
  | exception (Wire_error _ | Sys_error _) -> (
    match read (path ^ ".prev") with
    | v -> Ok (v, true)
    | exception (Wire_error _ | Sys_error _) ->
      Error (Printf.sprintf "no valid %s at %s or %s.prev" what path path))

let load_frame_file =
  load_with ~what:"frame" (fun p -> decode_frame (Support.Fsio.read_file p))

let write_checkpoint path ck = write_frame_file path (Checkpoint ck)

(** Read and validate the checkpoint at exactly [path]. Raises
    {!Wire_error} on a torn/corrupt/mismatched file or a frame that is
    not a checkpoint, [Sys_error] if unreadable. *)
let read_checkpoint path =
  match decode_frame (Support.Fsio.read_file path) with
  | Checkpoint ck -> ck
  | _ -> fail "not a checkpoint frame: %s" path

(* a primary holding a valid frame that is not a checkpoint falls back
   to [.prev] like a torn one *)
let load_checkpoint = load_with ~what:"checkpoint" read_checkpoint

(* ------------------------------------------------------------------ *)
(* Exported codec primitives                                           *)
(* ------------------------------------------------------------------ *)

(** The scalar codec primitives, exported so satellite protocols riding
    the {!Blob} envelope (the mutation campaign) encode their payloads
    with the same length-prefixed little-endian discipline instead of
    reinventing (or [Marshal]-ing) their own. *)
module Codec = struct
  type nonrec cursor = cursor

  let cursor data = { data; pos = 0 }
  let at_end c = c.pos = String.length c.data
  let w_u8 = w_u8
  let w_i64 = w_i64
  let w_f64 = w_f64
  let w_str = w_str
  let w_opt = w_opt
  let w_list = w_list
  let r_u8 = r_u8
  let r_i64 = r_i64
  let r_f64 = r_f64
  let r_str = r_str
  let r_opt = r_opt
  let r_list = r_list
  let fail = fail
end

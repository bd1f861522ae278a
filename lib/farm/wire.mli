(** The farm's wire protocol: length-prefixed, versioned, checksummed
    binary frames over pipes between the supervisor and its worker
    processes, plus the campaign checkpoint file (same frame format, so
    a checkpoint torn by a crash mid-write is detected exactly like a
    frame torn by a crashed peer).

    Frame layout: ["ODNW"] magic (4) · protocol version (1) · message
    tag (1) · payload length u32 LE (4) · checksum = first 4 bytes of
    the payload's MD5 (4) · payload. Any violation — bad magic,
    unknown version or tag, truncation, checksum mismatch, malformed
    payload — raises {!Wire_error}; it never yields a half-decoded
    message. The version is bumped on any layout change so mismatched
    builds refuse each other cleanly instead of misparsing. *)

exception Wire_error of string

val magic : string
val version : int

(** Bytes before the payload: magic + version + tag + length + checksum. *)
val header_len : int

(** The supervisor's bootstrap frame: everything a worker process needs
    to build its session — the target module travels as printed IR. *)
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

(** One round's results: items for the assigned slots (slot order) plus
    the worker's substrate counters for this assignment. *)
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
          [bl_kind] names the sub-protocol message, [bl_data] its payload
          encoded with {!Codec} by a layer above Wire — framing,
          versioning and checksumming stay shared without Wire depending
          on that layer *)

(** Serialize [msg] into one complete frame. *)
val encode_frame : msg -> string

(** Parse one frame starting at an offset. [None] when the bytes so far
    are a valid prefix of a frame (read more); raises {!Wire_error} on
    corruption; otherwise the message plus the next offset. *)
val decode_at : string -> int -> (msg * int) option

(** Decode a string holding exactly one frame (the checkpoint file). *)
val decode_frame : string -> msg

(** Send one frame. Fault site ["wire.send"]: an injected fault raises
    before any byte is written; the torn kind writes half the frame and
    raises {!Wire_error} — the peer sees a mid-send crash. *)
val send : Unix.file_descr -> msg -> unit

(** Incremental frame reader over an fd: buffers partial reads, yields
    complete frames. *)
type reader = { rd_fd : Unix.file_descr; mutable rd_pending : string }

val reader : Unix.file_descr -> reader

(** Bytes buffered but not yet consumed (a nonzero value at EOF is a
    torn frame). *)
val pending : reader -> int

(** Pull the next complete frame out of the buffer, without reading the
    fd. Raises {!Wire_error} on corruption. *)
val next : reader -> msg option

(** One [read] into the buffer. [`Eof] means the peer closed its end;
    if bytes of an incomplete frame are pending, that is a torn frame
    and the caller should treat the peer as crashed. *)
val feed : reader -> [ `Eof | `Read of int ]

(** Blocking receive of one frame ([Wire_error] on EOF or corruption) —
    the worker side's main loop. *)
val recv : reader -> msg

(** Atomically publish any frame at [path] (tmp + rename), first
    rotating any existing file to [path.prev] — at every instant at
    least one of the two holds a complete frame. Returns [false] when
    the ["farm.checkpoint"] fault site suppressed the write; its torn
    kind leaves a truncated frame that {!load_frame_file} falls back
    from. The farm checkpoint and the mutation campaign's (a {!Blob})
    are both published here. *)
val write_frame_file : string -> msg -> bool

(** Load the frame at [path], falling back to [path.prev] when the
    primary is missing or torn; [(msg, fallback_used)]. *)
val load_frame_file : string -> (msg * bool, string) result

(** {!write_frame_file} of a {!Checkpoint} frame. *)
val write_checkpoint : string -> Orch.ckpt -> bool

(** Read and validate the checkpoint at exactly [path]. Raises
    {!Wire_error} on a torn/corrupt/mismatched file or a frame that is
    not a checkpoint, [Sys_error] if unreadable. *)
val read_checkpoint : string -> Orch.ckpt

(** Load [path], falling back to [path.prev] when the primary is
    missing, torn or not a checkpoint. Returns the checkpoint and
    whether the fallback was used. *)
val load_checkpoint : string -> (Orch.ckpt * bool, string) result

(** The scalar codec primitives, exported so satellite protocols riding
    the {!Blob} envelope encode their payloads with the same
    length-prefixed little-endian discipline as the core frames. *)
module Codec : sig
  type cursor

  val cursor : string -> cursor

  (** All payload bytes consumed? Sub-protocols should check this after
      decoding, mirroring the frame decoder's trailing-garbage check. *)
  val at_end : cursor -> bool

  val w_u8 : Buffer.t -> int -> unit
  val w_i64 : Buffer.t -> int -> unit
  val w_f64 : Buffer.t -> float -> unit
  val w_str : Buffer.t -> string -> unit
  val w_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
  val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
  val r_u8 : cursor -> int
  val r_i64 : cursor -> int
  val r_f64 : cursor -> float
  val r_str : cursor -> string
  val r_opt : cursor -> (cursor -> 'a) -> 'a option
  val r_list : cursor -> (cursor -> 'a) -> 'a list

  (** Raise {!Wire_error} with a formatted message (malformed payload). *)
  val fail : ('a, unit, string, 'b) format4 -> 'a
end

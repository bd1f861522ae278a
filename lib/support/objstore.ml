(** Crash-safe on-disk content-addressed blob store — the persistent
    layer behind Session's in-memory object cache ([odinc fuzz
    --cache-dir]), so a restarted fuzzing campaign starts warm.

    Layout under the root directory:

    {v
    root/format          "ODINSTORE <version>\n" — mismatch wipes objects
    root/objects/ab/<hex>  entries, sharded by the first two hex chars
    root/quarantine/     corrupt entries moved aside for post-mortem
    root/tmp/            write staging (temp file + atomic rename)
    v}

    Every entry is [header ^ payload] where the header records a magic
    string, the store version, the payload's digest and its length. A
    read that finds a missing field, a short payload, or a digest
    mismatch — a torn or corrupted entry — is treated as a miss: the
    entry is moved to [quarantine/] (never silently reused, kept for
    inspection) and the caller recompiles. Writes go to [tmp/] and are
    published with [Sys.rename], so a crash mid-write leaves at worst a
    stale temp file, never a half-visible entry.

    Keys are arbitrary strings (Session uses its content digest); they
    are re-hashed to hex for the on-disk name. Reads and writes are safe
    from concurrent domains: counters are mutex-guarded and the
    filesystem operations are per-entry atomic.

    Multi-process safety: one store directory may be shared by several
    worker {e processes} (the process farm). Every handle keeps
    [root/lock] open and takes an advisory [lockf] lock on it — shared
    for per-entry mutations (put, quarantine: their atomic renames
    already compose), exclusive for structural passes (format
    migration, {!gc}) that must not interleave with another process's
    writes. Advisory locks are per-process, so this complements (does
    not replace) the per-handle mutex. Lock failures degrade to
    unlocked best-effort operation — the store never becomes a
    correctness dependency.

    Fault sites: ["store.read"] (a raised fault degrades to a miss),
    ["store.write"] (a raised fault skips persistence — the store is an
    optimization, never a correctness dependency), and the torn-write
    kind at ["store.write"] makes the store deliberately publish a
    truncated entry at the final path, simulating a crash on a
    non-atomic filesystem — the recovery path above is then testable by
    construction. *)

let magic = "ODINSTORE"

type stats = {
  st_hits : int;
  st_misses : int;  (** includes corrupt entries *)
  st_writes : int;
  st_write_errors : int;  (** failed/skipped best-effort writes *)
  st_quarantined : int;
  st_gc_runs : int;
  st_gc_evicted : int;  (** entries evicted by {!gc} over this handle's life *)
}

type t = {
  root : string;
  version : int;
  lock : Mutex.t;
  lockf_fd : Unix.file_descr option;  (** [root/lock], advisory cross-process lock *)
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_errors : int;
  mutable quarantined : int;
  mutable gc_runs : int;
  mutable gc_evicted : int;
  mutable tmp_seq : int;
}

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
    end
    else try Sys.remove path with Sys_error _ -> ()

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let format_file root = Filename.concat root "format"
let lock_file root = Filename.concat root "lock"
let objects_dir root = Filename.concat root "objects"
let quarantine_root t = Filename.concat t.root "quarantine"
let tmp_dir root = Filename.concat root "tmp"

(* ------------------------------------------------------------------ *)
(* Advisory cross-process locking                                      *)
(* ------------------------------------------------------------------ *)

(* Best-effort: a platform where lockf is unsupported degrades to the
   old unlocked behavior rather than failing the store. *)
let open_lock_fd root =
  try Some (Unix.openfile (lock_file root) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
  with Unix.Unix_error _ | Sys_error _ -> None

(* F_LOCK = exclusive (structural passes), F_RLOCK = shared
   (per-entry mutations, whose atomic renames already compose). *)
let with_fd_lock fd_opt cmd f =
  match fd_opt with
  | None -> f ()
  | Some fd ->
    let locked = try Unix.lockf fd cmd 0; true with Unix.Unix_error _ -> false in
    Fun.protect
      ~finally:(fun () ->
        if locked then try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
      f

let with_store_lock t cmd f = with_fd_lock t.lockf_fd cmd f

(* ------------------------------------------------------------------ *)
(* Open                                                                *)
(* ------------------------------------------------------------------ *)

(** Open (creating or migrating as needed) the store rooted at [dir].
    A version mismatch in [root/format] — a format bump — invalidates
    cleanly: all objects are dropped and the stamp rewritten. *)
let open_store ?(version = 1) dir =
  Fsio.mkdir_p dir;
  let lockf_fd = open_lock_fd dir in
  (* Migration is structural: wipe + restamp must not race another
     process's writes, so it runs under the exclusive lock. *)
  with_fd_lock lockf_fd Unix.F_LOCK (fun () ->
      let stamp = Printf.sprintf "%s %d\n" magic version in
      let current = try Some (Fsio.read_file (format_file dir)) with Sys_error _ -> None in
      if current <> Some stamp then begin
        rm_rf (objects_dir dir);
        rm_rf (tmp_dir dir);
        (* publish the new stamp atomically too *)
        Fsio.mkdir_p (tmp_dir dir);
        let tmp = Filename.concat (tmp_dir dir) "format.tmp" in
        write_file tmp stamp;
        Sys.rename tmp (format_file dir)
      end;
      Fsio.mkdir_p (objects_dir dir);
      Fsio.mkdir_p (tmp_dir dir);
      Fsio.mkdir_p (Filename.concat dir "quarantine"));
  {
    root = dir;
    version;
    lock = Mutex.create ();
    lockf_fd;
    hits = 0;
    misses = 0;
    writes = 0;
    write_errors = 0;
    quarantined = 0;
    gc_runs = 0;
    gc_evicted = 0;
    tmp_seq = 0;
  }

(* ------------------------------------------------------------------ *)
(* Entry naming and format                                             *)
(* ------------------------------------------------------------------ *)

let entry_name key = Digest.to_hex (Digest.string key)

(** On-disk path of [key]'s entry (exposed so tests and operators can
    inspect or deliberately corrupt a specific entry). *)
let entry_path t key =
  let name = entry_name key in
  Filename.concat (Filename.concat (objects_dir t.root) (String.sub name 0 2)) name

let header t payload =
  Printf.sprintf "%s %d %s %d\n" magic t.version
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

type read_result = Hit of string | Absent | Corrupt of string

let read_entry t path =
  if not (Sys.file_exists path) then Absent
  else
    match Fsio.read_file path with
    | exception Sys_error m -> Corrupt m
    | raw -> (
      match String.index_opt raw '\n' with
      | None -> Corrupt "no header"
      | Some nl -> (
        let header = String.sub raw 0 nl in
        let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
        match String.split_on_char ' ' header with
        | [ m; v; digest_hex; len_s ] -> (
          if m <> magic then Corrupt "bad magic"
          else if int_of_string_opt v <> Some t.version then Corrupt "bad version"
          else
            match int_of_string_opt len_s with
            | None -> Corrupt "bad length"
            | Some len when len <> String.length payload ->
              Corrupt
                (Printf.sprintf "torn entry: %d of %d payload bytes"
                   (String.length payload) len)
            | Some _ ->
              if Digest.to_hex (Digest.string payload) <> digest_hex then
                Corrupt "digest mismatch"
              else Hit payload)
        | _ -> Corrupt "malformed header"))

(* Move a corrupt entry aside; it is never served again and survives for
   post-mortem. Best-effort: if even the move fails, delete it. *)
let quarantine t path reason =
  let dest =
    Filename.concat (quarantine_root t)
      (Printf.sprintf "%s.%d" (Filename.basename path)
         (let n = t.quarantined in
          n))
  in
  with_store_lock t Unix.F_RLOCK (fun () ->
      try Sys.rename path dest
      with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  ignore reason

(* ------------------------------------------------------------------ *)
(* Get / put                                                           *)
(* ------------------------------------------------------------------ *)

(** Look up [key]. A corrupt or torn entry is detected (checksum,
    length, version), quarantined, and reported as a miss; an injected
    ["store.read"] fault likewise degrades to a miss. *)
let get t key =
  let faulted =
    try
      Fault.hit "store.read";
      false
    with Fault.Injected _ | Fault.Transient_fault _ -> true
  in
  if faulted then begin
    Mutex.lock t.lock;
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock;
    None
  end
  else
    let path = entry_path t key in
    match read_entry t path with
    | Hit payload ->
      Mutex.lock t.lock;
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Some payload
    | Absent ->
      Mutex.lock t.lock;
      t.misses <- t.misses + 1;
      Mutex.unlock t.lock;
      None
    | Corrupt reason ->
      Mutex.lock t.lock;
      t.misses <- t.misses + 1;
      t.quarantined <- t.quarantined + 1;
      Mutex.unlock t.lock;
      quarantine t path reason;
      None

(** Persist [data] under [key]: temp file + atomic rename. Best-effort —
    any failure (including an injected ["store.write"] fault) is counted
    and swallowed; persistence is an optimization, never a correctness
    dependency. A torn-write fault deliberately publishes a truncated
    entry at the final path (crash simulation); the next {!get} must
    quarantine it. *)
let put t key data =
  try
    Fault.hit "store.write";
    let path = entry_path t key in
    Fsio.mkdir_p (Filename.dirname path);
    if Fault.torn "store.write" then begin
      (* simulated crash mid-write on a non-atomic filesystem: final
         path exists, payload truncated *)
      write_file path (header t data ^ String.sub data 0 (String.length data / 2));
      Mutex.lock t.lock;
      t.writes <- t.writes + 1;
      Mutex.unlock t.lock
    end
    else begin
      Mutex.lock t.lock;
      t.tmp_seq <- t.tmp_seq + 1;
      let seq = t.tmp_seq in
      Mutex.unlock t.lock;
      let tmp =
        Filename.concat (tmp_dir t.root)
          (Printf.sprintf "%s.%d.%d.tmp" (entry_name key) (Unix.getpid ()) seq)
      in
      with_store_lock t Unix.F_RLOCK (fun () ->
          write_file tmp (header t data ^ data);
          Sys.rename tmp path);
      Mutex.lock t.lock;
      t.writes <- t.writes + 1;
      Mutex.unlock t.lock
    end
  with
  | Fault.Timed_out _ as e -> raise e
  | _ ->
    Mutex.lock t.lock;
    t.write_errors <- t.write_errors + 1;
    Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      st_hits = t.hits;
      st_misses = t.misses;
      st_writes = t.writes;
      st_write_errors = t.write_errors;
      st_quarantined = t.quarantined;
      st_gc_runs = t.gc_runs;
      st_gc_evicted = t.gc_evicted;
    }
  in
  Mutex.unlock t.lock;
  s

let root t = t.root

(** Number of entries currently on disk. *)
let length t =
  let objects = objects_dir t.root in
  if not (Sys.file_exists objects) then 0
  else
    Array.fold_left
      (fun acc shard ->
        let dir = Filename.concat objects shard in
        if Sys.is_directory dir then acc + Array.length (Sys.readdir dir) else acc)
      0 (Sys.readdir objects)

(** Entries sitting in quarantine (count of files). *)
let quarantine_length t =
  let dir = quarantine_root t in
  if Sys.file_exists dir then Array.length (Sys.readdir dir) else 0

(* ------------------------------------------------------------------ *)
(* Garbage collection                                                  *)
(* ------------------------------------------------------------------ *)

type gc_stats = {
  gc_scanned : int;
  gc_evicted : int;
  gc_freed_bytes : int;
  gc_live : int;
  gc_live_bytes : int;
}

(* All entries as (path, bytes, mtime), in a deterministic order:
   coldest (oldest mtime) first, path as tie-break. *)
let scan_entries t =
  let objects = objects_dir t.root in
  let acc = ref [] in
  if Sys.file_exists objects then
    Array.iter
      (fun shard ->
        let dir = Filename.concat objects shard in
        if Sys.is_directory dir then
          Array.iter
            (fun name ->
              let path = Filename.concat dir name in
              match Unix.stat path with
              | exception Unix.Unix_error _ -> ()
              | st ->
                if st.Unix.st_kind = Unix.S_REG then
                  acc := (path, st.Unix.st_size, st.Unix.st_mtime) :: !acc)
            (Sys.readdir dir))
      (Sys.readdir objects);
  List.sort
    (fun (pa, _, ma) (pb, _, mb) ->
      match compare ma mb with 0 -> String.compare pa pb | c -> c)
    !acc

(** Size-bounded eviction of cold entries: the coldest entries are
    evicted until the store fits in [max_bytes]. Eviction order is
    deterministic: oldest mtime first, path as tie-break. Best-effort
    like every store operation — an entry that vanishes mid-scan is
    simply skipped. *)
let gc ~max_bytes t =
  with_store_lock t Unix.F_LOCK @@ fun () ->
  let entries = scan_entries t in
  let scanned = List.length entries in
  let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 entries in
  (* [entries] is coldest-first; evict from the front until the
     remainder fits *)
  let rec take acc remaining = function
    | [] -> List.rev acc
    | ((_, sz, _) as e) :: rest ->
      if remaining > max_bytes then take (e :: acc) (remaining - sz) rest
      else List.rev acc
  in
  let victims = take [] total entries in
  let evicted = ref 0 and freed = ref 0 in
  List.iter
    (fun (path, sz, _) ->
      match Sys.remove path with
      | () ->
        incr evicted;
        freed := !freed + sz
      | exception Sys_error _ -> ())
    victims;
  Mutex.lock t.lock;
  t.gc_runs <- t.gc_runs + 1;
  t.gc_evicted <- t.gc_evicted + !evicted;
  Mutex.unlock t.lock;
  {
    gc_scanned = scanned;
    gc_evicted = !evicted;
    gc_freed_bytes = !freed;
    gc_live = scanned - !evicted;
    gc_live_bytes = total - !freed;
  }

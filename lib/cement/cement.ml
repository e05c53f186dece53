(* Tiered cold storage: cemented journal history in append-only,
   checksummed, index-backed segment files.

   Layout of a cement directory (conventionally <db>/cemented):

     segment-<first>-<last>.ddf    J1 frames, nothing else: a sealed wal
     segment-<first>-<last>.idx    I1 <first> <last> <count>\n
                                   + one 32-byte line per entry:
                                     %016x %c %012d\n
                                     offset kind  id

   A segment is the journal's wal file, renamed into this directory
   once complete ([seal]): each frame is written once, by the append
   that journaled it, and the seqno window is the file name.  The index
   line records the frame's byte offset (hex, fixed width), its entry
   kind (p/n/r/c/v for put/note/record/conflict/resolve) and the id the
   entry installs (the iid for puts and notes, 0 otherwise), read off
   the entry's head by [Entry.classify] when the frame was appended
   ([index_add]).  A segment of cement segment format 1 (a "C1 <first>
   <last>" line before a copy of the frames) is refused at open.

   The index is derived data: if it is missing, or its header
   disagrees with the segment, it is rebuilt by one sequential scan.
   Only the newest segment can have a torn tail, so open checks that
   its last indexed frame is whole and ends the file; when it is not,
   open scans the segment, cuts it in place back to the last good frame
   and renames it to the window that survived.  Any segment is scanned
   when its index is stale.  Open also reads every index once into the
   put map (iid -> seqno and frame offset of the newest put that
   installed it), which [seal] extends and [clear] empties. *)

module Metrics = Ddf_obs.Metrics
module Obs = Ddf_obs.Obs
module Entry = Ddf_entry.Entry
module Disk = Ddf_disk.Disk

let cement_errorf ?(code = `Internal) fmt = Ddf_core.Error.errorf code fmt

let g_segments = Metrics.gauge "cement.segments"
let g_bytes = Metrics.gauge "cement.bytes"
let m_reads = Metrics.counter "cement.reads"
let m_folds = Metrics.counter "cement.folds"
let h_fold = Metrics.histogram "cement.fold_seconds"

(* ------------------------------------------------------------------ *)
(* J1 framing: the one frame codec of the wal and the segments         *)
(* ------------------------------------------------------------------ *)

(* A frame is "J1 <payload-bytes> <md5-hex>\n<payload>\n": the header
   makes entries self-delimiting, the checksum makes a torn tail
   detectable. *)
let frame_header payload =
  String.concat ""
    [ "J1 "; Int.to_string (String.length payload); " ";
      Digest.to_hex (Digest.string payload) ]

(* Header, payload and newlines go to the channel as they are: the
   frame is never assembled in memory. *)
let output_frame oc payload =
  output_string oc (frame_header payload);
  output_char oc '\n';
  output_string oc payload;
  output_char oc '\n'

(* The length and checksum a header line announces. *)
let parse_header line =
  match String.split_on_char ' ' line with
  | [ "J1"; len; digest ] -> (
    match int_of_string_opt len with
    | Some len when len >= 0 -> Some (len, digest)
    | Some _ | None -> None)
  | _ -> None

(* A length this large is checked against what the file still holds
   before anything is allocated for it. *)
let large_frame = 1 lsl 20

(* Read one frame from a channel: [`Frame payload]; [`End] cleanly at
   end of file; [`Torn at] when the tail is damaged ([at] = end of the
   good prefix).  [skip payload] skips the checksum. *)
let read_frame ?(skip = fun _ -> false) ic =
  let start = pos_in ic in
  match input_line ic with
  | exception End_of_file -> `End
  | header -> (
    match parse_header header with
    | None -> `Torn start
    | Some (len, _)
      when len >= large_frame && len >= in_channel_length ic - pos_in ic ->
      `Torn start
    | Some (len, digest) -> (
      match really_input_string ic len with
      | exception End_of_file -> `Torn start
      | payload -> (
        match input_char ic with
        | '\n'
          when skip payload || Digest.to_hex (Digest.string payload) = digest ->
          `Frame payload
        | _ | (exception End_of_file) -> `Torn start)))

(* ------------------------------------------------------------------ *)
(* Index lines                                                         *)
(* ------------------------------------------------------------------ *)

let idx_line_len = 32

(* The lines, and one line's worth of scratch the next is written in. *)
type index = { lines : Buffer.t; line : Bytes.t }

let index () = { lines = Buffer.create 4096; line = Bytes.create idx_line_len }
let hex_digits = "0123456789abcdef"

(* [n]'s decimal digits, right-aligned to end at [line.[i]]. *)
let rec decimal line i n =
  if n > 0 then begin
    Bytes.unsafe_set line i (Char.unsafe_chr (48 + (n mod 10)));
    decimal line (i - 1) (n / 10)
  end

(* One "%016x %c %012d\n" line, written digit by digit: it is added on
   every journal append. *)
let index_add { lines; line } ~off payload =
  let kind, id = Entry.classify payload in
  Bytes.fill line 19 12 '0';
  for k = 0 to 15 do
    Bytes.unsafe_set line (15 - k) hex_digits.[(off lsr (4 * k)) land 15]
  done;
  Bytes.unsafe_set line 16 ' ';
  Bytes.unsafe_set line 17 kind;
  Bytes.unsafe_set line 18 ' ';
  decimal line 30 id;
  Bytes.unsafe_set line 31 '\n';
  Buffer.add_bytes lines line

let index_offset idx k =
  int_of_string ("0x" ^ Buffer.sub idx.lines (k * idx_line_len) 16)

let idx_header first last count = Printf.sprintf "I1 %d %d %d\n" first last count

let parse_idx_entry line =
  if String.length line <> idx_line_len - 1 then
    cement_errorf "cement index: malformed entry %S" line
  else
    let off = int_of_string ("0x" ^ String.sub line 0 16) in
    let kind = line.[17] in
    let id = int_of_string (String.sub line 19 12) in
    (off, kind, id)

(* ------------------------------------------------------------------ *)
(* Segments                                                            *)
(* ------------------------------------------------------------------ *)

type segment = {
  s_first : int;
  s_last : int;
  s_path : string;                    (* .ddf *)
  s_idx : string;                     (* .idx *)
  s_bytes : int;
  s_idx_base : int;                   (* byte length of the idx header *)
  mutable s_fd : Unix.file_descr option;      (* cached .ddf descriptor *)
  mutable s_idx_fd : Unix.file_descr option;  (* cached .idx descriptor *)
}

type t = {
  c_dir : string;
  c_m : Mutex.t;
  mutable c_segments : segment array;  (* ascending, contiguous *)
  c_puts : (int, int * int) Hashtbl.t;  (* iid -> (seqno, frame offset) *)
  c_truncated : int;
}

let seg_name first last = Printf.sprintf "segment-%012d-%012d" first last
let seg_path dir first last = Filename.concat dir (seg_name first last ^ ".ddf")
let idx_path dir first last = Filename.concat dir (seg_name first last ^ ".idx")

let parse_seg_name name =
  match Scanf.sscanf name "segment-%012d-%012d.ddf%!" (fun a b -> (a, b)) with
  | pair -> Some pair
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* A segment of format 1 begins with its "C1 <first> <last>" header,
   so its first frame is not at offset 0; a sealed wal begins with a
   frame's "J1". *)
let refuse_format_1 path =
  cement_errorf ~code:`Invalid
    "cement segment %s is cement segment format 1 (a C1 header before its \
     frames); this build reads only sealed wal segments: rebuild the \
     database"
    path

(* Scan a segment's frames: (the index of its good prefix, frames in
   it, end of the good prefix, file size). *)
let scan_segment path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  if in_channel_length ic >= 3 && really_input_string ic 3 = "C1 " then
    refuse_format_1 path;
  seek_in ic 0;
  let idx = index () in
  let rec go n =
    let off = pos_in ic in
    match read_frame ic with
    | `End -> (n, off)
    | `Torn at -> (n, at)
    | `Frame payload ->
      index_add idx ~off payload;
      go (n + 1)
  in
  let n, good_end = go 0 in
  (idx, n, good_end, in_channel_length ic)

(* Write the idx file of window [first..last] from its index lines;
   returns the idx header length. *)
let write_idx ~dir ~first ~last idx =
  let header = idx_header first last (last - first + 1) in
  Disk.replace (idx_path dir first last) (fun oc ->
      output_string oc header;
      Buffer.output_buffer oc idx.lines);
  String.length header

(* Whether the idx for window [first..last] is present and holds
   [count] entries. *)
let idx_valid ~dir ~first ~last count =
  let path = idx_path dir first last in
  Sys.file_exists path
  &&
  let expect = idx_header first last count in
  let ic = open_in_bin path in
  let header = (try input_line ic with End_of_file -> "") ^ "\n" in
  let len = in_channel_length ic in
  close_in ic;
  header = expect && len = String.length expect + (count * idx_line_len)

(* Record the segment's put frames in the put map, ascending, so the
   newest put of an iid wins. *)
let index_puts puts seg body =
  for k = 0 to seg.s_last - seg.s_first do
    if body.[(k * idx_line_len) + 17] = 'p' then begin
      let line = String.sub body (k * idx_line_len) (idx_line_len - 1) in
      let off, _, id = parse_idx_entry line in
      Hashtbl.replace puts id (seg.s_first + k, off)
    end
  done

(* ------------------------------------------------------------------ *)
(* Open                                                                *)
(* ------------------------------------------------------------------ *)

let refresh_gauges t =
  Metrics.set g_segments (float_of_int (Array.length t.c_segments));
  Metrics.set g_bytes
    (float_of_int
       (Array.fold_left (fun acc s -> acc + s.s_bytes) 0 t.c_segments))

(* The idx body of [seg]: one fixed-width line per frame. *)
let idx_body seg =
  let ic = open_in_bin seg.s_idx in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  seek_in ic seg.s_idx_base;
  really_input_string ic ((seg.s_last - seg.s_first + 1) * idx_line_len)

let drop_files ~dir ~first ~last path =
  (try Sys.remove path with Sys_error _ -> ());
  try Sys.remove (idx_path dir first last) with Sys_error _ -> ()

let make_segment ~dir ~first ~last ~path ~bytes ~idx_base =
  { s_first = first; s_last = last; s_path = path;
    s_idx = idx_path dir first last; s_bytes = bytes; s_idx_base = idx_base;
    s_fd = None; s_idx_fd = None }

(* Positioned read on a cached descriptor.  Callers hold [t.c_m], so
   the lseek+read pair is atomic with respect to other readers. *)
let seg_fd seg =
  match seg.s_fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.openfile seg.s_path [ Unix.O_RDONLY ] 0 in
    seg.s_fd <- Some fd;
    fd

let seg_idx_fd seg =
  match seg.s_idx_fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.openfile seg.s_idx [ Unix.O_RDONLY ] 0 in
    seg.s_idx_fd <- Some fd;
    fd

(* Close the cached descriptors (they reopen lazily). *)
let close_fds seg =
  let close =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
  in
  close seg.s_fd;
  close seg.s_idx_fd;
  seg.s_fd <- None;
  seg.s_idx_fd <- None

let pread fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  let buf = Bytes.create len in
  let rec go o =
    if o >= len then o
    else
      match Unix.read fd buf o (len - o) with 0 -> o | k -> go (o + k)
  in
  let n = go 0 in
  Bytes.sub_string buf 0 n

let find_segment t seq =
  let segs = t.c_segments in
  let rec bisect lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let s = segs.(mid) in
      if seq < s.s_first then bisect lo (mid - 1)
      else if seq > s.s_last then bisect (mid + 1) hi
      else Some s
  in
  bisect 0 (Array.length segs - 1)

(* The indexed offset of [seq] within its segment. *)
let entry_offset seg seq =
  let k = seq - seg.s_first in
  let line =
    pread (seg_idx_fd seg) ~off:(seg.s_idx_base + (k * idx_line_len))
      ~len:idx_line_len
  in
  if String.length line <> idx_line_len then
    cement_errorf "cement index %s: short read at entry %d" seg.s_idx k;
  let off, _, _ = parse_idx_entry (String.sub line 0 (idx_line_len - 1)) in
  off

(* Read the frame at [off]: parse the J1 header out of a fixed-size
   probe, then read exactly the payload. *)
let frame_at seg off =
  let fd = seg_fd seg in
  let probe = pread fd ~off ~len:64 in
  let nl =
    match String.index_opt probe '\n' with
    | Some i -> i
    | None -> cement_errorf "cement segment %s: bad frame header" seg.s_path
  in
  match parse_header (String.sub probe 0 nl) with
  | None -> cement_errorf "cement segment %s: bad frame header" seg.s_path
  | Some (len, digest) ->
    if off + nl + 1 + len > seg.s_bytes then
      cement_errorf "cement segment %s: frame runs past the segment" seg.s_path;
    let payload = pread fd ~off:(off + nl + 1) ~len in
    if String.length payload <> len then
      cement_errorf "cement segment %s: short frame read" seg.s_path;
    if Digest.to_hex (Digest.string payload) <> digest then
      cement_errorf "cement segment %s: frame checksum mismatch at %d"
        seg.s_path off;
    payload

(* Open one segment file.  A segment with a valid index is trusted as
   is: it was complete and fsynced before its rename, so only external
   damage tears the newest one, and that shows at its end: its last
   indexed frame must be whole and end the file.  Otherwise the segment
   is scanned frame by frame.  Returns [None] when nothing of a damaged
   newest segment survives; adds dropped torn bytes to [truncated]. *)
let open_segment ~dir ~newest ~truncated (first, last) =
  let path = seg_path dir first last in
  let want = last - first + 1 in
  let checked =
    if not (idx_valid ~dir ~first ~last want) then None
    else
      let seg =
        make_segment ~dir ~first ~last ~path
          ~bytes:(Unix.stat path).Unix.st_size
          ~idx_base:(String.length (idx_header first last want))
      in
      let whole () =
        let off = entry_offset seg last in
        let p = frame_at seg off in
        off + String.length (frame_header p) + String.length p + 2 = seg.s_bytes
      in
      match (not newest) || whole () with
      | true -> Some seg
      | false | (exception (Ddf_core.Error.Ddf_error _ | Failure _)) ->
        close_fds seg;
        None
  in
  match checked with
  | Some _ -> checked
  | None ->
    let idx, have, good_end, size = scan_segment path in
    if have > want then
      cement_errorf "cement segment %s: %d frames for window %d-%d" path have
        first last;
    if have < want && not newest then
      cement_errorf "cement segment %s: torn mid-store (%d/%d frames)" path
        have want;
    if have = 0 then begin
      (* nothing survived: drop the segment *)
      truncated := !truncated + size;
      drop_files ~dir ~first ~last path;
      None
    end
    else begin
      (* a torn tail on the newest segment: cut it back to the good
         prefix and rename it to the window that survived; the frames
         keep their offsets *)
      let last' = first + have - 1 in
      let path' = seg_path dir first last' in
      if good_end < size then begin
        truncated := !truncated + (size - good_end);
        Disk.cut path good_end
      end;
      if last' <> last then begin
        Sys.rename path path';
        try Sys.remove (idx_path dir first last) with Sys_error _ -> ()
      end;
      let idx_base =
        if idx_valid ~dir ~first ~last:last' have then
          String.length (idx_header first last' have)
        else write_idx ~dir ~first ~last:last' idx
      in
      Some
        (make_segment ~dir ~first ~last:last' ~path:path' ~bytes:good_end
           ~idx_base)
    end

let open_ ~dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    cement_errorf "%s is not a directory" dir;
  let names =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map parse_seg_name
    |> List.sort compare
  in
  let truncated = ref 0 in
  (* leftover temp files from a crashed index write are garbage *)
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".tmp" then
        try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
  let n_names = List.length names in
  let segments =
    List.mapi
      (fun i window ->
        open_segment ~dir ~newest:(i = n_names - 1) ~truncated window)
      names
    |> List.filter_map Fun.id
  in
  if !truncated > 0 then Disk.fsync_path dir;
  (* surviving segments must be contiguous *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b.s_first <> a.s_last + 1 then
        cement_errorf "cement store %s: gap between %d and %d" dir a.s_last
          b.s_first;
      check rest
    | _ -> ()
  in
  check segments;
  let puts = Hashtbl.create 1024 in
  List.iter
    (fun seg ->
      let body = idx_body seg in
      if not (String.starts_with ~prefix:"0000000000000000 " body) then
        refuse_format_1 seg.s_path;
      index_puts puts seg body)
    segments;
  let t =
    { c_dir = dir; c_m = Mutex.create ();
      c_segments = Array.of_list segments; c_puts = puts;
      c_truncated = !truncated }
  in
  refresh_gauges t;
  t

let dir t = t.c_dir
let truncated_on_open t = t.c_truncated

let locked t f =
  Mutex.lock t.c_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.c_m) f

let first_seq t =
  locked t @@ fun () ->
  if Array.length t.c_segments = 0 then 0 else t.c_segments.(0).s_first

let last_seq t =
  locked t @@ fun () ->
  let n = Array.length t.c_segments in
  if n = 0 then 0 else t.c_segments.(n - 1).s_last

let segment_count t = locked t @@ fun () -> Array.length t.c_segments

let total_bytes t =
  locked t @@ fun () ->
  Array.fold_left (fun acc s -> acc + s.s_bytes) 0 t.c_segments

(* ------------------------------------------------------------------ *)
(* Seal (cementing)                                                    *)
(* ------------------------------------------------------------------ *)

let seal t ~first idx path =
  let count = Buffer.length idx.lines / idx_line_len in
  if count > 0 then begin
    let t0 = Unix.gettimeofday () in
    locked t (fun () ->
        let n = Array.length t.c_segments in
        let last_cemented = if n = 0 then 0 else t.c_segments.(n - 1).s_last in
        if n > 0 && first <> last_cemented + 1 then
          cement_errorf ~code:`Conflict
            "cement seal: have through %d, offered from %d" last_cemented first;
        let last = first + count - 1 in
        let seg_file = seg_path t.c_dir first last in
        Sys.rename path seg_file;
        let idx_base = write_idx ~dir:t.c_dir ~first ~last idx in
        Disk.fsync_path t.c_dir;
        let seg =
          make_segment ~dir:t.c_dir ~first ~last ~path:seg_file
            ~bytes:(Unix.stat seg_file).Unix.st_size ~idx_base
        in
        index_puts t.c_puts seg (Buffer.contents idx.lines);
        t.c_segments <- Array.append t.c_segments [| seg |];
        Metrics.incr m_folds;
        refresh_gauges t);
    let dt = Unix.gettimeofday () -. t0 in
    Metrics.observe h_fold dt;
    if Obs.enabled () then
      Obs.complete ~cat:"cement" ~dur_us:(dt *. 1e6)
        ~attrs:[ ("frames", Obs.Int count) ]
        "cement.seal"
  end

(* ------------------------------------------------------------------ *)
(* Reads (positioned, index-backed)                                    *)
(* ------------------------------------------------------------------ *)

let read t seq =
  locked t @@ fun () ->
  match find_segment t seq with
  | None -> None
  | Some seg ->
    let off = entry_offset seg seq in
    Metrics.incr m_reads;
    Some (frame_at seg off)

let iter_range ?skip t ~from ~upto f =
  (* collect under the lock, deliver outside it, segment by segment —
     [f] may be arbitrary user code *)
  let batch from upto =
    locked t @@ fun () ->
    match find_segment t from with
    | None -> None
    | Some seg ->
      let hi = min upto seg.s_last in
      let off = entry_offset seg from in
      let ic = open_in_bin seg.s_path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      seek_in ic off;
      let out = ref [] in
      for seq = from to hi do
        match read_frame ?skip ic with
        | `Frame payload -> out := (seq, payload) :: !out
        | `End | `Torn _ ->
          cement_errorf "cement segment %s: truncated mid-window" seg.s_path
      done;
      Metrics.incr m_reads;
      Some (List.rev !out, hi)
  in
  let rec go from =
    if from <= upto then
      match batch from upto with
      | None -> ()
      | Some (frames, hi) ->
        List.iter (fun (seq, payload) -> f seq payload) frames;
        go (hi + 1)
  in
  let lo = max from (first_seq t) in
  if lo > 0 then go lo

(* The put map answers both: no index file is read after open. *)
let put_seq t ~iid =
  locked t @@ fun () -> Option.map fst (Hashtbl.find_opt t.c_puts iid)

let find_put t ~iid =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.c_puts iid with
  | None -> None
  | Some (seq, off) -> (
    match find_segment t seq with
    | None -> None
    | Some seg ->
      Metrics.incr m_reads;
      Some (frame_at seg off))

let iter_puts t f =
  let ids =
    locked t @@ fun () -> Hashtbl.fold (fun iid _ acc -> iid :: acc) t.c_puts []
  in
  List.iter f (List.sort compare ids)

(* Newest first: a process that dies midway leaves a store that still
   starts where it did, which is how the journal tells it from the
   line it was cleared for. *)
let clear t =
  locked t @@ fun () ->
  for i = Array.length t.c_segments - 1 downto 0 do
    let seg = t.c_segments.(i) in
    close_fds seg;
    (try Sys.remove seg.s_path with Sys_error _ -> ());
    try Sys.remove seg.s_idx with Sys_error _ -> ()
  done;
  t.c_segments <- [||];
  Hashtbl.reset t.c_puts;
  Disk.fsync_path t.c_dir;
  refresh_gauges t

let close t = locked t @@ fun () -> Array.iter close_fds t.c_segments

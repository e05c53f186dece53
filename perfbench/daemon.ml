(* The shipped daemon as a child process: spawn [hercules serve] with its
   default flags on a database directory, wait for the first answered
   ping, read its /proc counters, and shut it down. *)

open Ddf

type t = { pid : int; socket : string }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      match (Unix.lstat s).Unix.st_kind with
      | Unix.S_DIR -> copy_tree s d
      | Unix.S_REG ->
        let ic = open_in_bin s and oc = open_out_bin d in
        let buf = Bytes.create 65536 in
        let rec go () =
          let n = input ic buf 0 65536 in
          if n > 0 then (output oc buf 0 n; go ())
        in
        go ();
        close_in ic;
        close_out oc
      | _ -> ())
    (Sys.readdir src)

(* Bytes of regular files under [dir]. *)
let rec du dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      match Unix.lstat p with
      | { Unix.st_kind = Unix.S_DIR; _ } -> acc + du p
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let spawn ~hercules ~db ~socket =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process hercules
      [| hercules; "serve"; "--db"; db; "--socket"; socket |]
      null null null
  in
  Unix.close null;
  { pid; socket }

(* Poll until the daemon answers a ping; returns the connected client. *)
let connect d =
  let timeout = 60.0 in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Client.connect ~user:Gen.user ~socket:d.socket () with
    | c -> (
      match Client.ping_r c with
      | Ok () -> c
      | Error _ -> Client.close c; retry ())
    | exception _ -> retry ()
  and retry () =
    if Unix.gettimeofday () -. t0 > timeout then
      failwith ("daemon did not answer on " ^ d.socket);
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited during start-up");
    Unix.sleepf 0.0005;
    go ()
  in
  go ()

let proc_field pid file key =
  let ic = open_in (Printf.sprintf "/proc/%d/%s" pid file) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:(key ^ ":") line ->
      let v = String.sub line (String.length key + 1) (String.length line - String.length key - 1) in
      Scanf.sscanf (String.trim v) "%d" (fun n -> n)
    | _ -> go ()
    | exception End_of_file -> failwith ("no " ^ key ^ " in /proc/" ^ file)
  in
  go ()

let peak_rss_kib d = proc_field d.pid "status" "VmHWM"
let wchar d = proc_field d.pid "io" "wchar"

let reap d = ignore (Unix.waitpid [] d.pid)

let stop d c =
  (try Client.shutdown c with _ -> ());
  reap d

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try reap d with Unix.Unix_error _ -> ()

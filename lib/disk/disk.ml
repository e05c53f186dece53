(* How a file becomes durable: the one place the journal, cement, the
   sync state and workspace files fsync, cut and replace files.  Every
   step raises on failure: a durability point that did not happen is
   never reported as one. *)

let fsync oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () -> Unix.fsync fd

let cut path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.ftruncate fd len;
  Unix.fsync fd

let replace path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    write oc;
    fsync oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(** How a file becomes durable.

    The journal, cement, the sync state and workspace files reach disk
    through these four steps and no others.  Each raises on failure
    ([Unix.Unix_error] or [Sys_error]): a caller that journals treats
    that as a failed durability point and fail-stops.  None of them
    fsyncs a directory on its own: a caller that renames or creates a
    file pins the directory entry with {!fsync_path} when its ordering
    needs it. *)

val fsync : out_channel -> unit
(** Flush the channel, then fsync its file. *)

val fsync_path : string -> unit
(** Fsync the file or directory at the path.  On a directory this makes
    the creates, renames and unlinks inside it durable. *)

val cut : string -> int -> unit
(** Truncate the file at the path to the given length and fsync it. *)

val replace : string -> (out_channel -> unit) -> unit
(** [replace path write] writes [path ^ ".tmp"] through [write], fsyncs
    and closes it, and renames it over [path]: a crash leaves either the
    old file or the new one, never a mix.  If any step fails, the
    temporary file is closed and removed, [path] is left as it was, and
    the exception is re-raised. *)

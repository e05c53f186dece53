(** One error taxonomy for the whole system.

    Every subsystem used to declare its own [X_error of string]; the
    only thing a caller could do with one was print it.  This module
    replaces the zoo with a single structured error: a {!code} drawn
    from a small closed set, a human-readable message, optional
    key/value context, and an explicit retry contract — [retryable]
    asserts the failed request was {e not executed} (so resending
    cannot double-apply), [retry_after] is a backoff hint in seconds.

    Every subsystem ([Store], [History], [Session], [Engine],
    [Consistency], [Journal], [Client], the server) raises
    {!Ddf_error} directly; the per-module [X_error] aliases that eased
    the migration are gone. *)

type code =
  [ `Not_found  (** no such instance / record / flow *)
  | `Type_error  (** schema or typing violation *)
  | `Conflict  (** state disagreement: replication gap, duplicate producer *)
  | `Overloaded  (** shed before execution: admission queue full *)
  | `Timeout  (** deadline or dwell budget exceeded before execution *)
  | `Unavailable  (** cannot serve now: shutting down, journal failed,
                      unreachable endpoint *)
  | `Ambiguous_commit
    (** a mutation's transport died after the request was sent: it may
        or may not have committed, and must not be blindly retried *)
  | `Invalid  (** malformed or unsatisfiable request *)
  | `Internal  (** everything else: bugs, unclassified exceptions *) ]

type t = {
  code : code;
  message : string;
  context : (string * string) list;  (** structured key/value detail *)
  retryable : bool;
      (** the request was not executed; resending is safe *)
  retry_after : float option;  (** backoff hint, seconds *)
}

exception Ddf_error of t

val make :
  ?context:(string * string) list ->
  ?retryable:bool ->
  ?retry_after:float ->
  code ->
  string ->
  t
(** [retryable] defaults to true for [`Overloaded], [`Timeout] and
    [`Unavailable] (each asserts the request was refused before
    execution) and to false for every other code. *)

val errorf :
  ?context:(string * string) list ->
  ?retryable:bool ->
  ?retry_after:float ->
  code ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Format a message and raise {!Ddf_error}. *)

val raise_ : t -> 'a

val code_to_string : code -> string
(** Stable kebab-case names (["not-found"], ["ambiguous-commit"], ...)
    used on the wire and in logs. *)

val code_of_string : string -> code option

val all_codes : code list

val message : t -> string

val to_string : t -> string
(** ["<code>: <message>"] plus context and the retry contract when
    present — what CLIs print. *)

val of_exn : exn -> t
(** {!Ddf_error} payloads pass through; any other exception becomes an
    [`Internal] error carrying [Printexc.to_string]. *)

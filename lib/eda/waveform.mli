(** Waveforms: per-net value changes over time, consumed by the
    plotter and the VCD export.  The event-driven simulator builds one
    once per run, from its change log, with {!of_traces}; the power
    model and the output signature read that log, not a waveform. *)

type trace = (int * Logic.value) list
(** [(time_ps, new_value)] pairs in time order; a net set twice at one
    time keeps both changes, the later one winning. *)

type t

val empty : t
val nets : t -> string list
val end_time_ps : t -> int
val trace : t -> string -> trace

val value_at : t -> string -> int -> Logic.value
(** The last change at or before the given time; X before any change. *)

val final_value : t -> string -> Logic.value

val of_traces : end_time_ps:int -> (string * trace) list -> t
(** One trace per net; the end time is at least the last change.
    Waveforms are canonical by construction:
    @raise Invalid_argument on out-of-order or redundant changes. *)


val sample : t -> string -> step_ps:int -> Logic.value list
(** Values at a fixed step from time 0 to the end time. *)

val hash : t -> string
val pp : Format.formatter -> t -> unit

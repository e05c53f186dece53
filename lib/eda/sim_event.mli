(** Event-driven gate-level simulation (selective trace).

    Input changes are scheduled at vector boundaries; a gate whose
    input changed is evaluated and, when its projected output differs,
    a new event is scheduled after the gate's delay under the active
    device model.  The simulator runs over the netlist's integer net
    ids ({!Netlist.index}): values, projections and a binary heap of
    pending events live in int arrays, and every change, hazard pulses
    included, goes into one change log.  {!Performance.analyze} reads
    switching, power and the output signature from that log; {!run}
    builds the full waveform from it once, at the end. *)

type stats = {
  events_processed : int;
  gate_evaluations : int;
}

type result = {
  waveform : Waveform.t;
  stats : stats;
}

exception Simulation_error of string

(** The changes of one run in processing order, by (time, schedule
    order): change [k < count] set net [net.(k)] to the value coded
    [value.(k)] ({!Logic.code}) at [time.(k)].  Nets of the stimuli
    that the netlist lacks have the ids from [Array.length ix.names]
    on, named by [extra_nets]. *)
type changes = private {
  mutable count : int;
  mutable net : int array;
  mutable time : int array;
  mutable value : int array;
  mutable evaluations : int;   (** gate evaluations *)
  mutable end_time_ps : int;   (** the horizon, or a later last change *)
  mutable extra_nets : string array;
}

val simulate :
  Netlist.indexed -> delays:int array -> settle_ps:int -> Stimuli.t -> changes
(** Simulate all stimulus vectors with the given delay per gate id;
    [settle_ps] extends the horizon past the last vector.
    @raise Simulation_error on a sequential netlist, or if activity
    persists far beyond the horizon (oscillation). *)

val run :
  ?model:Device_model.t -> ?settle_ps:int -> Netlist.t -> Stimuli.t -> result
(** {!simulate} under the model's delays, and the waveform of every
    net that changed.  @raise Simulation_error as {!simulate}. *)

val final_outputs : result -> Netlist.t -> (string * Logic.value) list
(** Steady-state primary-output values after the final vector; these
    agree with {!Netlist.eval} on the last vector (tested property). *)

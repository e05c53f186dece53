(* Waveforms: per-net value changes over time, as produced by the
   event-driven simulator (built once, from its change log) and
   consumed by the plotter and the VCD export. *)

module String_map = Map.Make (String)

type trace = (int * Logic.value) list
(* (time_ps, new value), strictly increasing times *)

type t = {
  end_time_ps : int;
  traces : trace String_map.t;
}

let empty = { end_time_ps = 0; traces = String_map.empty }

let nets t = List.map fst (String_map.bindings t.traces)
let end_time_ps t = t.end_time_ps

let trace t net =
  match String_map.find_opt net t.traces with Some tr -> tr | None -> []

(* Value of a net at a given time (the last change at or before it). *)
let value_at t net time =
  let rec scan last = function
    | [] -> last
    | (ts, v) :: rest -> if ts <= time then scan v rest else last
  in
  scan Logic.VX (trace t net)

let final_value t net = value_at t net t.end_time_ps

(* Build a waveform from each net's changes; out-of-order or
   redundant changes are rejected so a waveform is canonical by
   construction.  The end time covers every change. *)
let of_traces ~end_time_ps traces =
  let rec check last_ts last_v = function
    | [] -> last_ts
    | (ts, v) :: rest ->
      if ts < last_ts then invalid_arg "Waveform.of_traces: time going backwards";
      if last_v = Some v then invalid_arg "Waveform.of_traces: redundant change";
      check ts (Some v) rest
  in
  List.fold_left
    (fun t (net, tr) ->
      let last = check min_int None tr in
      { end_time_ps = max t.end_time_ps last;
        traces = String_map.add net tr t.traces })
    { end_time_ps = max 0 end_time_ps; traces = String_map.empty }
    traces

let total_transitions t =
  String_map.fold (fun _ tr acc -> acc + List.length tr) t.traces 0

(* Sample a net at a fixed step: what the plotter draws. *)
let sample t net ~step_ps =
  if step_ps <= 0 then invalid_arg "Waveform.sample";
  let rec go acc time =
    if time > t.end_time_ps then List.rev acc
    else go (value_at t net time :: acc) (time + step_ps)
  in
  go [] 0

let hash t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int t.end_time_ps);
  String_map.iter
    (fun net tr ->
      Buffer.add_string buf net;
      List.iter
        (fun (ts, v) ->
          Buffer.add_string buf (string_of_int ts);
          Buffer.add_string buf (Logic.value_name v))
        tr)
    t.traces;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp ppf t =
  Fmt.pf ppf "waveform: %d nets, %d transitions, %d ps"
    (List.length (nets t)) (total_transitions t) t.end_time_ps

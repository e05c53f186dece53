(* Event-driven gate-level simulation.

   A classic selective-trace simulator over the netlist's integer net
   ids ([Netlist.index]): input changes are scheduled at vector
   boundaries; a gate whose input changed is evaluated and, when its
   projected output differs, a new event is scheduled after the gate's
   delay under the active device model.  Net values, projections and
   the pending events live in int arrays, and every change is appended
   to one change log in processing order.  The performance analysis
   reads switching, power and the output signature straight from that
   log; [run] turns it into a full waveform once, at the end. *)

type stats = {
  events_processed : int;
  gate_evaluations : int;
}

type result = {
  waveform : Waveform.t;
  stats : stats;
}

exception Simulation_error of string

(* The changes of one run in processing order, by (time, sequence
   number): change [k] set net [net.(k)] to the value coded
   [value.(k)] at [time.(k)].  Only the first [count] entries hold. *)
type changes = {
  mutable count : int;
  mutable net : int array;
  mutable time : int array;
  mutable value : int array;
  mutable evaluations : int;
  mutable end_time_ps : int;
  mutable extra_nets : string array;
}

(* [a]'s [n] entries in an array twice as long. *)
let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let log_change c net time value =
  if c.count = Array.length c.net then begin
    c.net <- grow c.net c.count;
    c.time <- grow c.time c.count;
    c.value <- grow c.value c.count
  end;
  c.net.(c.count) <- net;
  c.time.(c.count) <- time;
  c.value.(c.count) <- value;
  c.count <- c.count + 1

(* Pending gate events: a binary heap ordered by (time, sequence
   number), so simultaneous events fire in schedule order. *)
type heap = {
  mutable size : int;
  mutable ev_time : int array;
  mutable ev_seq : int array;
  mutable ev_net : int array;
  mutable ev_value : int array;
}

let before h i time seq =
  h.ev_time.(i) < time || (h.ev_time.(i) = time && h.ev_seq.(i) < seq)

let move h ~src ~dst =
  h.ev_time.(dst) <- h.ev_time.(src);
  h.ev_seq.(dst) <- h.ev_seq.(src);
  h.ev_net.(dst) <- h.ev_net.(src);
  h.ev_value.(dst) <- h.ev_value.(src)

let place h i time seq net value =
  h.ev_time.(i) <- time;
  h.ev_seq.(i) <- seq;
  h.ev_net.(i) <- net;
  h.ev_value.(i) <- value

let push h time seq net value =
  if h.size = Array.length h.ev_time then begin
    h.ev_time <- grow h.ev_time h.size;
    h.ev_seq <- grow h.ev_seq h.size;
    h.ev_net <- grow h.ev_net h.size;
    h.ev_value <- grow h.ev_value h.size
  end;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && not (before h ((!i - 1) / 2) time seq) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  place h !i time seq net value

(* Drop the earliest event (the caller has read it at index 0). *)
let pop h =
  h.size <- h.size - 1;
  let last = h.size in
  if last > 0 then begin
    let time = h.ev_time.(last) and seq = h.ev_seq.(last) in
    let net = h.ev_net.(last) and value = h.ev_value.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < last && before h (l + 1) h.ev_time.(l) h.ev_seq.(l) then l + 1
        else l
      in
      if l < last && before h c time seq then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else sifting := false
    done;
    place h !i time seq net value
  end

let simulate (ix : Netlist.indexed) ~delays ~settle_ps stimuli =
  if Netlist.is_sequential ix.source then
    raise
      (Simulation_error
         "the event-driven simulator is combinational-only; use the \
          compiled (cycle-based) simulator for sequential designs");
  let n = Array.length ix.names in
  (* The stimulus entries in schedule order; nets the netlist lacks
     take ids from [n]. *)
  let extras = Hashtbl.create 1 in
  let id net =
    match Hashtbl.find ix.ids net with
    | i -> i
    | exception Not_found -> (
      match Hashtbl.find extras net with
      | i -> i
      | exception Not_found ->
        let i = n + Hashtbl.length extras in
        Hashtbl.add extras net i;
        i)
  in
  let interval = Stimuli.interval_ps stimuli in
  let vectors = Stimuli.vectors stimuli in
  let n_stim = List.fold_left (fun acc v -> acc + List.length v) 0 vectors in
  let s_time = Array.make n_stim 0 in
  let s_net = Array.make n_stim 0 in
  let s_value = Array.make n_stim 0 in
  let j = ref 0 in
  List.iteri
    (fun k vec ->
      List.iter
        (fun (net, v) ->
          s_time.(!j) <- k * interval;
          s_net.(!j) <- id net;
          s_value.(!j) <- Logic.code v;
          incr j)
        vec)
    vectors;
  let total = n + Hashtbl.length extras in
  let values = Array.make total (Logic.code Logic.VX) in
  (* The value a net will hold once its pending events have fired, -1
     while it has never been scheduled.  Comparing against it (not the
     current value) avoids the classic stale-event bug where a pending
     change is silently overridden.  All the stimuli are scheduled
     before the first event fires, so a stimulated net starts at its
     last stimulus. *)
  let projected = Array.make total (-1) in
  for j = 0 to n_stim - 1 do
    projected.(s_net.(j)) <- s_value.(j)
  done;
  (* Readers by net: the gates reading net [i] are
     [readers.(first.(i)) .. readers.(first.(i + 1) - 1)], the last
     reader in netlist order first, a gate once per input it reads
     the net on.  That order fixes the sequence numbers. *)
  let first = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun i -> first.(i) <- first.(i) + 1)) ix.gate_inputs;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let readers = Array.make first.(n) 0 in
  Array.iteri
    (fun g ins ->
      Array.iter
        (fun i ->
          first.(i) <- first.(i) - 1;
          readers.(first.(i)) <- g)
        ins)
    ix.gate_inputs;
  let n_gates = Array.length ix.gate in
  let heap =
    let cap = max 16 n_gates in
    { size = 0; ev_time = Array.make cap 0; ev_seq = Array.make cap 0;
      ev_net = Array.make cap 0; ev_value = Array.make cap 0 }
  in
  let log =
    let cap = max 16 (n_stim + n_gates) in
    { count = 0; net = Array.make cap 0; time = Array.make cap 0;
      value = Array.make cap 0; evaluations = 0; end_time_ps = 0;
      extra_nets = [||] }
  in
  let horizon = (List.length vectors * interval) + settle_ps in
  let seq = ref 0 in
  let fire time net v =
    if time > horizon + 100_000 then
      raise (Simulation_error "simulation did not settle (oscillation?)");
    if values.(net) <> v then begin
      log_change log net time v;
      values.(net) <- v;
      if net < n then
        for r = first.(net) to first.(net + 1) - 1 do
          let g = readers.(r) in
          log.evaluations <- log.evaluations + 1;
          let out =
            Logic.eval_code ix.gate.(g).Netlist.op ix.gate_inputs.(g) values
          in
          let o = ix.gate_output.(g) in
          let p = projected.(o) in
          if out <> (if p < 0 then values.(o) else p) then begin
            incr seq;
            projected.(o) <- out;
            push heap (time + delays.(g)) !seq o out
          end
        done
    end
  in
  (* A stimulus was scheduled before any gate event, so it goes first
     at equal times. *)
  let next = ref 0 in
  while !next < n_stim || heap.size > 0 do
    if !next < n_stim && (heap.size = 0 || s_time.(!next) <= heap.ev_time.(0))
    then begin
      let j = !next in
      incr next;
      fire s_time.(j) s_net.(j) s_value.(j)
    end
    else begin
      let time = heap.ev_time.(0) and net = heap.ev_net.(0) in
      let v = heap.ev_value.(0) in
      pop heap;
      fire time net v
    end
  done;
  let last = if log.count = 0 then 0 else log.time.(log.count - 1) in
  log.end_time_ps <- max horizon (max 0 last);
  if Hashtbl.length extras > 0 then begin
    log.extra_nets <- Array.make (Hashtbl.length extras) "";
    Hashtbl.iter (fun net i -> log.extra_nets.(i - n) <- net) extras
  end;
  log

(* The waveform of a run: each net's changes, built once. *)
let waveform (ix : Netlist.indexed) c =
  let n = Array.length ix.names in
  let traces = Array.make (n + Array.length c.extra_nets) [] in
  for k = c.count - 1 downto 0 do
    let i = c.net.(k) in
    traces.(i) <- (c.time.(k), Logic.of_code c.value.(k)) :: traces.(i)
  done;
  let named = ref [] in
  Array.iteri
    (fun i tr ->
      if tr <> [] then
        let name = if i < n then ix.names.(i) else c.extra_nets.(i - n) in
        named := (name, tr) :: !named)
    traces;
  Waveform.of_traces ~end_time_ps:c.end_time_ps !named

let run ?(model = Device_model.default) ?(settle_ps = 0) netlist stimuli =
  let ix = Netlist.index netlist in
  let c =
    simulate ix ~delays:(Device_model.gate_delays model ix) ~settle_ps stimuli
  in
  { waveform = waveform ix c;
    stats = { events_processed = c.count; gate_evaluations = c.evaluations } }

(* Steady-state output values after the final vector: the functional
   result, comparable against the compiled simulator. *)
let final_outputs result netlist =
  List.map
    (fun o -> (o, Waveform.final_value result.waveform o))
    netlist.Netlist.primary_outputs

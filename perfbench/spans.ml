(* Bench-side spans: the durations of each named span, kept in memory
   for the per-layer metrics.  A span's self time is its duration minus
   the time its direct children cover; it is recorded under
   [name ^ "#self"]. *)

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type frame = { f_start : float; mutable f_children : float }

type t = {
  mutable stack : frame list;
  samples : (string, float list ref) Hashtbl.t;  (* name -> durations, s *)
}

let create () = { stack = []; samples = Hashtbl.create 32 }

let record t name v =
  match Hashtbl.find_opt t.samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add t.samples name (ref [ v ])

let with_span t name f =
  let fr = { f_start = now (); f_children = 0.0 } in
  t.stack <- fr :: t.stack;
  let finish () =
    let dur = now () -. fr.f_start in
    t.stack <- List.tl t.stack;
    (match t.stack with p :: _ -> p.f_children <- p.f_children +. dur | [] -> ());
    record t name dur;
    record t (name ^ "#self") (dur -. fr.f_children)
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let samples t name =
  match Hashtbl.find_opt t.samples name with Some l -> !l | None -> []

(* Experiment O: behaviour at and past saturation.

   A closed-loop client fleet hammers one scratch server with
   moderately expensive installs at increasing concurrency, twice:
   once with a small bounded admission queue (the shedding
   configuration) and once with an effectively unbounded queue.  With
   shedding, a mutation's queue dwell is bounded by [max_queue] times
   the service time, so the latency tail of the *accepted* requests
   stays flat as offered load grows and the surplus is refused with
   [`Overloaded] plus a retry-after hint the clients honour.  Without
   the bound every request is admitted and the tail stretches with the
   queue instead.

   Exported gauges (for --json), per configuration and fleet size:
   overload.{shed,noshed}.c{N}.{acked_rps,shed_frac,p99_ms}, and the
   headline overload.p99_ratio (unbounded p99 / bounded p99 at the
   highest load). *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-overload-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let seed ctx = ignore (Workspace.of_session (Session.of_context ctx))

let with_scratch_server ~max_queue f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ~max_queue ~seed ~db:dir ~socket Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t;
      rm_rf dir)
    (fun () -> f socket)

let levels = [ 1; 8; 32 ]
let duration_s = 1.5

(* 2^10 stimulus vectors: enough codec + hash + journal work per
   install that per-job service time dominates the batch fsync and a
   small fleet saturates the one group commit that runs at a time. *)
let payload =
  Codec.value_to_sexp
    (Value.Stimuli
       (Eda.Stimuli.exhaustive
          [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j" ]))

(* Closed loop: each client issues the next install as soon as the
   previous one is answered, backing off by the server's hint when
   shed.  Returns (acked, shed, latencies of acked requests). *)
let drive ~clients ~socket =
  let stop_at = Unix.gettimeofday () +. duration_s in
  let oks = Array.make clients 0
  and sheds = Array.make clients 0
  and lats = Array.make clients [] in
  let worker i () =
    Client.with_client ~user:(Printf.sprintf "load%d" i) ~socket @@ fun c ->
    let n = ref 0 in
    while Unix.gettimeofday () < stop_at do
      let t0 = Unix.gettimeofday () in
      (match
         Client.install_r c ~entity:E.stimuli
           ~label:(Printf.sprintf "o%d-%d" i !n)
           payload
       with
      | Ok _ ->
        oks.(i) <- oks.(i) + 1;
        lats.(i) <- (Unix.gettimeofday () -. t0) :: lats.(i)
      | Error e when e.Error.code = `Overloaded ->
        sheds.(i) <- sheds.(i) + 1;
        Thread.delay
          (match e.Error.retry_after with
          | Some s -> Float.min s 0.25
          | None -> 0.01)
      | Error e -> failwith (Error.to_string e));
      incr n
    done
  in
  let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  let acked = Array.fold_left ( + ) 0 oks
  and shed = Array.fold_left ( + ) 0 sheds
  and all = Array.fold_left (fun acc l -> List.rev_append l acc) [] lats in
  (acked, shed, List.sort compare all)

let p99 = function
  | [] -> 0.0
  | lats ->
    let n = List.length lats in
    List.nth lats (min (n - 1) (n * 99 / 100))

(* One configuration: sweep the fleet sizes against one queue bound.
   Returns the p99 at the highest load. *)
let sweep label ~max_queue =
  Bench_util.section
    (Printf.sprintf "%s: max_queue=%d, %.1fs per level" label max_queue
       duration_s);
  with_scratch_server ~max_queue @@ fun socket ->
  List.fold_left
    (fun _ clients ->
      let acked, shed, lats = drive ~clients ~socket in
      let total = acked + shed in
      let shed_frac =
        if total = 0 then 0.0 else float_of_int shed /. float_of_int total
      in
      let rps = float_of_int acked /. duration_s in
      let p99_ms = p99 lats *. 1e3 in
      Printf.printf
        "  %2d clients: %6.0f acked/s, %4.1f%% shed, p99 %6.1f ms\n%!"
        clients rps (100.0 *. shed_frac) p99_ms;
      let g suffix v =
        Metrics.set
          (Metrics.gauge
             (Printf.sprintf "overload.%s.c%d.%s" label clients suffix))
          v
      in
      g "acked_rps" rps;
      g "shed_frac" shed_frac;
      g "p99_ms" p99_ms;
      p99_ms)
    0.0 levels

let run () =
  let bounded = sweep "shed" ~max_queue:8 in
  let unbounded = sweep "noshed" ~max_queue:1_000_000 in
  let ratio = if bounded > 0.0 then unbounded /. bounded else 0.0 in
  Printf.printf
    "\n  p99 at %d clients: bounded %.1f ms vs unbounded %.1f ms (%.1fx)\n"
    (List.fold_left max 0 levels) bounded unbounded ratio;
  Metrics.set (Metrics.gauge "overload.p99_ratio") ratio

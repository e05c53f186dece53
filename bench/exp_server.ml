(* Experiment S: the design server under concurrent clients.

   An in-process daemon on a scratch database; N client threads issue
   a mixed workload (installs and annotations, group-committed one
   group at a time, browses and stats served concurrently) over the Unix-socket
   wire protocol.  Reports sustained requests/sec and p50/p99
   per-request latency.  The same 4 x 40 rounds run as 10 windows, each
   against a fresh daemon in this process; the gauges exported for
   --json are the medians over the windows, printed beside their
   interquartile ranges, so one run is an A/B data point rather than
   one draw of a bimodal 50 ms sample. *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-server-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let seed ctx =
  ignore (Workspace.of_session (Session.of_context ctx))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let n_clients = 4
let rounds = 40

(* Each round: two mutations and two reads, individually timed. *)
let workload socket i =
  let lat = ref [] in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    lat := (Unix.gettimeofday () -. t0) *. 1e6 :: !lat;
    x
  in
  Client.with_client ~user:(Printf.sprintf "bench%d" i) ~socket (fun c ->
      for j = 1 to rounds do
        let iid =
          timed (fun () ->
              Client.install c ~entity:E.stimuli
                ~label:(Printf.sprintf "b%d-%d" i j)
                (Codec.value_to_sexp
                   (Value.Stimuli (Eda.Stimuli.exhaustive [ "a"; "b" ]))))
        in
        timed (fun () -> Client.annotate c ~keywords:[ "bench" ] iid);
        ignore
          (timed (fun () ->
               Client.browse c
                 { Store.f_entities = Some [ E.stimuli ]; f_user = None;
                   f_from = None; f_to = None; f_keywords = []; f_text = None }));
        ignore (timed (fun () -> Client.stat c))
      done);
  !lat

(* One window: a fresh daemon on a scratch database, [n_clients]
   clients of [rounds] rounds each.  Returns req/s, p50 and p99 us. *)
let window () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let t = Server.start ~seed ~db:dir ~socket Standard_schemas.odyssey in
  let lats = Array.make n_clients [] in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init n_clients (fun i ->
        Thread.create (fun () -> lats.(i) <- workload socket i) ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  Server.stop t;
  Server.wait t;
  rm_rf dir;
  let all = Array.of_list (Array.to_list lats |> List.concat) in
  Array.sort compare all;
  ( float_of_int (Array.length all) /. wall_s,
    percentile all 0.50,
    percentile all 0.99 )

let windows = 10

let run () =
  Bench_util.section
    (Printf.sprintf
       "design server: %d windows of %d clients x %d rounds over the socket"
       windows n_clients rounds);
  let ws = List.init windows (fun _ -> window ()) in
  Bench_util.print_table [ "window"; "req/s"; "p50 us"; "p99 us" ]
    (List.mapi
       (fun k (rps, p50, p99) ->
         [ string_of_int (k + 1); Printf.sprintf "%.0f" rps;
           Printf.sprintf "%.1f" p50; Printf.sprintf "%.1f" p99 ])
       ws);
  (* Each gauge is the median over the windows, printed with its
     interquartile range, so two builds compare window against window. *)
  let summary name fmt pick =
    let xs = List.map pick ws in
    let median = Bench_util.quantile xs 0.5 in
    Printf.printf "  %s median %s, IQR %s\n" name (fmt median)
      (fmt (Bench_util.quantile xs 0.75 -. Bench_util.quantile xs 0.25));
    median
  in
  let rps = summary "req/s" (Printf.sprintf "%.0f") (fun (r, _, _) -> r) in
  let p50 = summary "p50 us" (Printf.sprintf "%.1f") (fun (_, p, _) -> p) in
  let p99 = summary "p99 us" (Printf.sprintf "%.1f") (fun (_, _, p) -> p) in
  Metrics.set (Metrics.gauge "server.bench.rps") rps;
  Metrics.set (Metrics.gauge "server.bench.p50_us") p50;
  Metrics.set (Metrics.gauge "server.bench.p99_us") p99

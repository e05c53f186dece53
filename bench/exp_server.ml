(* Experiment S: the design server under concurrent clients.

   An in-process daemon on a scratch database; N client threads issue
   a mixed workload (installs and annotations, group-committed one
   group at a time, browses and stats served concurrently) over the Unix-socket
   wire protocol.  Reports sustained requests/sec and p50/p99
   per-request latency, exported as gauges for --json. *)

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

let run () =
  Bench_util.section
    (Printf.sprintf "design server: %d clients x %d rounds over the socket"
       n_clients rounds);
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
  let total = Array.length all in
  let rps = float_of_int total /. wall_s in
  let p50 = percentile all 0.50 and p99 = percentile all 0.99 in
  Printf.printf "  %d requests in %.2f s: %.0f req/s\n" total wall_s rps;
  Printf.printf "  latency p50 %.1f us, p99 %.1f us\n" p50 p99;
  Metrics.set (Metrics.gauge "server.bench.rps") rps;
  Metrics.set (Metrics.gauge "server.bench.p50_us") p50;
  Metrics.set (Metrics.gauge "server.bench.p99_us") p99

(* The server process of a benchmark run.

   Restores the detector from the newest snapshot in a directory
   ([Snapshot.load_latest] then [Service.of_snapshot]) and serves it with
   [Server.start] at [Server.default_config] on an ephemeral port, which
   it announces as the first line of its standard output ("port N").
   Running in its own process, it shares no runtime lock with the load
   generator.

   With a feed file it also wraps the service in a [Stream] (policy,
   capacity and compaction threshold from the PROM_STREAM_* environment
   the parent sets). Commands arrive one per line on standard input:

   - [feed SECONDS SEED] admits every feed sample over SECONDS (one per
     slot, jittered within it from SEED) on a thread beside the serving
     threads; when done it saves the stream's final snapshot into the
     final directory and prints one line "fed {json}" with every admit's
     duration and the stream's counters;
   - [quit] (or end of input) drains the server and exits 0. *)

open Prom

let out_lock = Mutex.create ()

let say line =
  Mutex.lock out_lock;
  print_string (line ^ "\n");
  flush stdout;
  Mutex.unlock out_lock

(* Admit [samples] over [seconds]: sample [i] at a uniformly random point
   of its own slot of [seconds / n] (jitter seeded by [seed]), so the
   admits keep an even rate without locking onto the read schedule. *)
let feed_thread stream samples ~seconds ~seed ~final_dir =
  let n = Array.length samples in
  let durations = Array.make n 0.0 in
  let rng = Random.State.make [| seed |] in
  let t_start = Unix.gettimeofday () in
  Array.iteri
    (fun i (features, label, proba) ->
      let slot = float_of_int i +. Random.State.float rng 1.0 in
      let due = t_start +. (seconds *. slot /. float_of_int n) in
      let wait = due -. Unix.gettimeofday () in
      if wait > 0.0 then Thread.delay wait;
      let t0 = Unix.gettimeofday () in
      Stream.admit stream ~features ~label ~proba;
      durations.(i) <- Unix.gettimeofday () -. t0)
    samples;
  ignore (Snapshot.save ~dir:final_dir (Stream.snapshot stream) : Prom_store.Store.info);
  let st = Stream.stats stream in
  let module J = Prom_jsonx in
  let num i = J.Num (float_of_int i) in
  say
    ("fed "
    ^ J.to_string
        (J.Obj
           [
             ("admit_s", J.Arr (Array.to_list (Array.map (fun d -> J.Num d) durations)));
             ("compactions", num st.Stream.compactions);
             ("publishes", num st.Stream.publishes);
             ("resident", num st.Stream.resident);
             ("last_rebuild_s", J.Num st.Stream.last_rebuild_s);
           ]))

let main ~dir ~feed_file ~final_dir =
  let registry = Prom_obs.create_registry () in
  let telemetry = Telemetry.create registry in
  let pool = Prom_parallel.Pool.default () in
  Prom_parallel.Pool.attach_metrics pool registry;
  let snap =
    match Snapshot.load_latest ~telemetry ~kind:Snapshot.kind_cls ~dir () with
    | Some (s, _) -> s
    | None -> failwith ("no loadable snapshot in " ^ dir)
  in
  let service = Service.of_snapshot ~telemetry snap in
  let feed =
    match feed_file with
    | None -> None
    | Some path ->
        let ic = open_in_bin path in
        let samples : (float array * int * float array) array = Marshal.from_channel ic in
        close_in ic;
        Some (Stream.create ~telemetry ~pool service, samples)
  in
  let server = Prom_server.Server.start ~telemetry ~pool service in
  say (Printf.sprintf "port %d" (Prom_server.Server.port server));
  let feeder = ref None in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "quit" -> ()
    | line -> (
        match (String.split_on_char ' ' line, feed) with
        | [ "feed"; s; seed ], Some (stream, samples) ->
            let seconds = float_of_string s and seed = int_of_string seed in
            feeder :=
              Some
                (Thread.create
                   (fun () -> feed_thread stream samples ~seconds ~seed ~final_dir)
                   ());
            loop ()
        | _ -> failwith ("unknown command: " ^ line))
  in
  loop ();
  Option.iter Thread.join !feeder;
  Prom_server.Server.stop server

(* Workload definitions and the seeded data each workload runs on.

   Every input the server ever sees — the calibration triples, the read
   traffic, the relabeled feed and the held-out drifted set — is drawn
   here from the run's seed. The host model is external: the generator
   computes each query's probability vector and sends it on the wire,
   exactly as a compiler embedding PROM through [Service] would. *)

open Prom_linalg

let dim = 16
let n_classes = 4

(* Within-class spread. With the class means below, a nearest-mean
   classifier mispredicts roughly one in-distribution draw in seven, so
   the detector has mispredictions to find on every workload. *)
let sigma = 3.0

let class_mean label j = float_of_int (label * (1 + (j mod 3)))

(* The host model: the linear-discriminant softmax of the in-distribution
   classes. It is fixed (no seed), so two runs differ only in the data. *)
let predict_proba x =
  let scores =
    Array.init n_classes (fun c ->
        let s = ref 0.0 in
        for j = 0 to dim - 1 do
          let m = class_mean c j in
          s := !s +. (m *. x.(j)) -. (0.5 *. m *. m)
        done;
        !s /. (sigma *. sigma))
  in
  let mx = Array.fold_left Float.max neg_infinity scores in
  let e = Array.map (fun s -> exp (s -. mx)) scores in
  let z = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun v -> v /. z) e

type query = { features : Vec.t; proba : Vec.t; label : int }

let query_of features label = { features; proba = predict_proba features; label }
let mispredicted q = Vec.argmax q.proba <> q.label

let draw rng ~shift label =
  let x =
    Array.init dim (fun j ->
        class_mean label j +. shift.(j) +. Rng.gaussian rng ~mu:0.0 ~sigma)
  in
  query_of x label

(* A random direction of Euclidean length [norm]. *)
let direction rng ~norm =
  let v = Array.init dim (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let n = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v) in
  Array.map (fun x -> x *. norm /. n) v

type spec = {
  name : string;
  n_cal : int;
  select_ratio : float option;  (** [None]: [Config.default] unchanged *)
  batch : int;  (** queries per request; 1 sends the single-query body *)
  rate : float;  (** fixed offered rate, requests/s *)
  limit_ms : float;  (** p99 latency limit of the rate ladder *)
  ladder : float array;  (** rungs above [rate], requests/s *)
  feed : bool;  (** relabeled feed admitted beside the reads *)
}

let geometric ~from ~ratio ~n = Array.init n (fun i -> from *. (ratio ** float_of_int (i + 1)))

let wire_dense =
  {
    name = "wire-dense";
    n_cal = 1200;
    select_ratio = None;
    batch = 1;
    rate = 200.0;
    limit_ms = 25.0;
    ladder = geometric ~from:200.0 ~ratio:1.5 ~n:10;
    feed = false;
  }

let wire_indexed_batch =
  {
    name = "wire-indexed-batch";
    n_cal = 10_000;
    select_ratio = Some 0.01;
    batch = 32;
    rate = 50.0;
    limit_ms = 100.0;
    ladder = geometric ~from:50.0 ~ratio:1.5 ~n:10;
    feed = false;
  }

let feedback_stream = { wire_dense with name = "feedback-stream"; feed = true }
let specs = [ wire_dense; wire_indexed_batch; feedback_stream ]
let find name = List.find_opt (fun s -> s.name = name) specs

let config spec =
  match spec.select_ratio with
  | None -> Prom.Config.default
  | Some r -> { Prom.Config.default with Prom.Config.select_ratio = r }

(* Relabeling budget: the feed admits this share of the read rate. *)
let feed_share = 0.05

(* Half-life, in admissions, of the feed's exponential decay policy. *)
let half_life = 100

(* Queries in the quality set; a multiple of its 32-query requests. *)
let quality_size = 8192

(* Share of the read traffic drawn under covariate shift. *)
let shifted_share = 0.2

type t = {
  spec : spec;
  calibration : (Vec.t * int * Vec.t) list;
  fixed : query array;  (** the fixed-rate phase's queries, in send order *)
  ladder_pool : query array;  (** cycled by the ladder rungs *)
  feed : query array;
      (** relabeled samples, drift growing along the feed (fixed draw) *)
  quality : query array;
      (** served in batches after the fixed-rate phase (after the feed on
          feedback-stream) to score detect_recall and acc_accepted: the
          read-traffic mix on the wire workloads, a fully drifted
          held-out set on feedback-stream *)
}

(* The covariate shift of the read traffic and the drift the feed ends
   at. Fixed, like the model: the seed varies the samples, not the
   geometry, so detect_recall differs across seeds only by sampling. *)
let shift, drift =
  let rng = Rng.create 0 in
  let s = direction rng ~norm:9.0 in
  (s, direction rng ~norm:9.0)

(* The calibration split and the relabeled feed are the deployment's
   history: fixed draws, so the seed varies the traffic that is served
   (and the sets that score it), not the detector being measured. *)
let calibration_seed = 1

let generate spec ~seed ~fixed_requests ~feed_count =
  let zero = Array.make dim 0.0 in
  let calibration =
    let rng = Rng.create calibration_seed in
    List.init spec.n_cal (fun i ->
        let q = draw rng ~shift:zero (i mod n_classes) in
        (q.features, q.label, q.proba))
  in
  let rng = Rng.create seed in
  let traffic n =
    Array.init n (fun _ ->
        let label = Rng.int rng n_classes in
        let s = if Rng.bernoulli rng shifted_share then shift else zero in
        draw rng ~shift:s label)
  in
  let fixed = traffic (fixed_requests * spec.batch) in
  let ladder_pool = traffic (Stdlib.min 4096 (64 * spec.batch)) in
  let feed =
    let rng = Rng.create (calibration_seed + 1) in
    Array.init feed_count (fun i ->
        let f = float_of_int (i + 1) /. float_of_int (Stdlib.max 1 feed_count) in
        draw rng ~shift:(Array.map (fun d -> f *. d) drift) (Rng.int rng n_classes))
  in
  let quality =
    if spec.feed then
      Array.init quality_size (fun _ -> draw rng ~shift:drift (Rng.int rng n_classes))
    else traffic quality_size
  in
  { spec; calibration; fixed; ladder_pool; feed; quality }

(* Request body in the wire format [Server] parses: a single query
   object, or [{"queries":[...]}] for batch requests. *)
let body queries =
  let module J = Prom_jsonx in
  let vec v = J.Arr (Array.to_list (Array.map (fun x -> J.Num x) v)) in
  let one q = J.Obj [ ("features", vec q.features); ("proba", vec q.proba) ] in
  match queries with
  | [| q |] -> J.to_string (one q)
  | qs -> J.to_string (J.Obj [ ("queries", J.Arr (Array.to_list (Array.map one qs))) ])

(* Split [qs] into consecutive requests of [batch] queries. *)
let requests ~batch qs =
  Array.init (Array.length qs / batch) (fun i -> Array.sub qs (i * batch) batch)

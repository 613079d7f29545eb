type source = {
  image_digest : string;
  config : string;
  seed : int64;
  workload : string;
  period : float;
  samples : int64;
  weight : float;
}

type t = {
  sources : source list;
  rows : (string * Ir.label, float) Hashtbl.t;
  runtime_mass : float;
  unknown_mass : float;
}

let empty =
  { sources = []; rows = Hashtbl.create 1; runtime_mass = 0.0;
    unknown_mass = 0.0 }

let is_empty t = Hashtbl.length t.rows = 0
let total_mass t = Hashtbl.fold (fun _ v acc -> acc +. v) t.rows 0.0
let image_digest (image : Link.image) = Digest.to_hex (Digest.string image.text)

let add_mass rows k m =
  let old = Option.value (Hashtbl.find_opt rows k) ~default:0.0 in
  Hashtbl.replace rows k (old +. m)

let of_run ~(image : Link.image) ?(config = "") ?(seed = 0L) ~workload
    (r : Sim.result) =
  match r.sample_profile with
  | None -> invalid_arg "Sprof.of_run: run was not sampled"
  | Some sp ->
      let locate = Simprof.locator image in
      let rows = Hashtbl.create 64 in
      let runtime_mass = ref 0.0 and unknown_mass = ref 0.0 in
      Array.iteri
        (fun off c ->
          if Int64.compare c 0L > 0 then begin
            (* Each sample stands for one period's worth of cycles. *)
            let mass = Int64.to_float c *. sp.period in
            let fname, label, in_runtime = locate off in
            if String.equal fname "?" then unknown_mass := !unknown_mass +. mass
            else if in_runtime then runtime_mass := !runtime_mass +. mass
            else add_mass rows (fname, label) mass
          end)
        sp.sample_counts;
      {
        sources =
          [
            {
              image_digest = image_digest image;
              config;
              seed;
              workload;
              period = sp.period;
              samples = sp.samples_taken;
              weight = 1.0;
            };
          ];
        rows;
        runtime_mass = !runtime_mass;
        unknown_mass = !unknown_mass;
      }

let merge ?(weight = 1.0) a b =
  if weight < 0.0 then invalid_arg "Sprof.merge: negative weight";
  let rows = Hashtbl.copy a.rows in
  Hashtbl.iter (fun k v -> add_mass rows k (weight *. v)) b.rows;
  {
    sources =
      a.sources
      @ List.map (fun s -> { s with weight = s.weight *. weight }) b.sources;
    rows;
    runtime_mass = a.runtime_mass +. (weight *. b.runtime_mass);
    unknown_mass = a.unknown_mass +. (weight *. b.unknown_mass);
  }

(* Quantize to power-of-four buckets after normalizing the hottest row
   to 2^20.  11 buckets span the whole dynamic range, so the derived
   pNOPs move in coarse steps: the sub-bucket sampling noise that layout
   changes between loop iterations induce cannot change the retrained
   binary, which is what lets the diversify → sample → retrain →
   re-diversify loop reach a byte-level fixed point.  Fresh exact
   profiles are never quantized — only the sampled production path pays
   this resolution loss. *)
let quantum = 1_048_576.0 (* 2^20 *)
let bucket_bits = 2.0 (* power-of-four buckets *)

let to_profile t =
  let mx = Hashtbl.fold (fun _ v acc -> Float.max v acc) t.rows 0.0 in
  if mx <= 0.0 then Profile.empty
  else begin
    let counts = Hashtbl.create (Hashtbl.length t.rows) in
    Hashtbl.iter
      (fun k v ->
        if v > 0.0 then begin
          let scaled = v /. mx *. quantum in
          let bucket =
            bucket_bits
            *. Float.max 0.0 (Float.round (Float.log2 scaled /. bucket_bits))
          in
          Hashtbl.replace counts k (Int64.of_float (Float.pow 2.0 bucket))
        end)
      t.rows;
    Profile.of_block_counts counts
  end

type staleness = {
  coverage_pct : float;
  hot_overlap_pct : float;
  mean_drift_pct : float;
  max_drift_pct : float;
}

(* The smallest prefix of rows (mass descending) covering 90% of the
   total — the "hot set" of telemetry and the paper's hot/cold split. *)
let hot_set rows_assoc =
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 rows_assoc in
  let sorted =
    List.sort
      (fun (ka, ma) (kb, mb) ->
        match compare mb ma with 0 -> compare ka kb | c -> c)
      rows_assoc
  in
  let tbl = Hashtbl.create 16 in
  let rec take cum = function
    | [] -> ()
    | (k, m) :: rest ->
        if cum < 0.9 *. total then begin
          Hashtbl.replace tbl k ();
          take (cum +. m) rest
        end
  in
  take 0.0 sorted;
  tbl

let func_shares rows_assoc =
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 rows_assoc in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((f, _), m) ->
      let old = Option.value (Hashtbl.find_opt tbl f) ~default:0.0 in
      Hashtbl.replace tbl f (old +. m))
    rows_assoc;
  if total > 0.0 then
    Hashtbl.filter_map_inplace (fun _ m -> Some (100.0 *. m /. total)) tbl;
  tbl

let staleness ~fresh t =
  let fresh_assoc =
    Profile.fold
      (fun k v acc ->
        if Int64.compare v 0L > 0 then (k, Int64.to_float v) :: acc else acc)
      fresh []
  in
  let samp_assoc = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rows [] in
  if fresh_assoc = [] || samp_assoc = [] then
    { coverage_pct = 0.0; hot_overlap_pct = 0.0; mean_drift_pct = 0.0;
      max_drift_pct = 0.0 }
  else begin
    let covered =
      List.fold_left
        (fun acc (k, _) -> if Hashtbl.mem t.rows k then acc + 1 else acc)
        0 fresh_assoc
    in
    let coverage_pct =
      100.0 *. float_of_int covered /. float_of_int (List.length fresh_assoc)
    in
    let fresh_hot = hot_set fresh_assoc and samp_hot = hot_set samp_assoc in
    let fresh_total =
      List.fold_left (fun acc (_, m) -> acc +. m) 0.0 fresh_assoc
    in
    let hot_mass, shared_mass =
      List.fold_left
        (fun (hm, sm) (k, m) ->
          if Hashtbl.mem fresh_hot k then
            (hm +. m, if Hashtbl.mem samp_hot k then sm +. m else sm)
          else (hm, sm))
        (0.0, 0.0) fresh_assoc
    in
    let hot_overlap_pct =
      if hot_mass > 0.0 then 100.0 *. shared_mass /. hot_mass
      else if fresh_total > 0.0 then 0.0
      else 0.0
    in
    let fresh_shares = func_shares fresh_assoc in
    let samp_shares = func_shares samp_assoc in
    let funcs = Hashtbl.create 16 in
    Hashtbl.iter (fun f _ -> Hashtbl.replace funcs f ()) fresh_shares;
    Hashtbl.iter (fun f _ -> Hashtbl.replace funcs f ()) samp_shares;
    let drifts =
      Hashtbl.fold
        (fun f () acc ->
          let a = Option.value (Hashtbl.find_opt fresh_shares f) ~default:0.0 in
          let b = Option.value (Hashtbl.find_opt samp_shares f) ~default:0.0 in
          Float.abs (a -. b) :: acc)
        funcs []
    in
    let n = List.length drifts in
    let mean_drift_pct =
      if n = 0 then 0.0
      else List.fold_left ( +. ) 0.0 drifts /. float_of_int n
    in
    let max_drift_pct = List.fold_left Float.max 0.0 drifts in
    { coverage_pct; hot_overlap_pct; mean_drift_pct; max_drift_pct }
  end

(* Retrain-on-drift hysteresis: sparse sampling makes the cold tail of a
   recording churn between runs (a block catching one sample or none),
   so a loop that redeploys on every recording never settles.  The hot
   set is what overhead fidelity needs, and it is stable — so a new
   recording only justifies retraining when its weighted hot-set overlap
   with the profile currently deployed drops below this threshold. *)
let drift_threshold_pct = 90.0

let materially_drifted ~previous t =
  let s = staleness ~fresh:previous t in
  Profile.is_empty previous || is_empty t
  || s.hot_overlap_pct < drift_threshold_pct

(* On-disk format: the same Frame container as objects and images.  Rows
   are written as a sorted assoc list so equal contents produce equal
   bytes regardless of hash-table history. *)
let magic = "PSDPROF"
let format_version = 1

type disk = {
  d_sources : source list;
  d_rows : ((string * Ir.label) * float) list;
  d_runtime : float;
  d_unknown : float;
}

let save t path =
  let d_rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rows [])
  in
  let disk =
    { d_sources = t.sources; d_rows; d_runtime = t.runtime_mass;
      d_unknown = t.unknown_mass }
  in
  Frame.save ~magic ~version:format_version disk path

let load path =
  let d : disk =
    Frame.load ~magic ~version:format_version ~what:"PSD profile file" path
  in
  let rows = Hashtbl.create (max 1 (List.length d.d_rows)) in
  List.iter (fun (k, v) -> Hashtbl.replace rows k v) d.d_rows;
  { sources = d.d_sources; rows; runtime_mass = d.d_runtime;
    unknown_mass = d.d_unknown }

let sorted_rows t =
  List.sort
    (fun (ka, ma) (kb, mb) ->
      match compare mb ma with 0 -> compare ka kb | c -> c)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rows [])

let truncate ?top rows =
  match top with
  | None -> rows
  | Some n -> List.filteri (fun i _ -> i < max 0 n) rows

let pct part total = if total > 0.0 then 100.0 *. part /. total else 0.0

let pp ?top ppf t =
  let total = total_mass t in
  let samples =
    List.fold_left (fun acc s -> Int64.add acc s.samples) 0L t.sources
  in
  Format.fprintf ppf
    "sampled profile: %d recording(s), %Ld samples, %.0f cycles of user \
     mass (runtime %.0f, unmapped %.0f)@."
    (List.length t.sources) samples total t.runtime_mass t.unknown_mass;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  source: image=%s config=%s seed=%Ld workload=%s period=%.0f \
         samples=%Ld weight=%g@."
        (String.sub s.image_digest 0 12)
        (if s.config = "" then "-" else s.config)
        s.seed s.workload s.period s.samples s.weight)
    t.sources;
  let rows = sorted_rows t in
  (match top with
  | Some n when n < List.length rows ->
      Format.fprintf ppf "showing top %d of %d rows@." n (List.length rows)
  | _ -> ());
  Format.fprintf ppf "%14s %7s %7s  %s@." "mass" "flat%" "sum%"
    "function:block";
  let cum = ref 0.0 in
  List.iter
    (fun ((f, l), m) ->
      cum := !cum +. m;
      Format.fprintf ppf "%14.0f %6.2f%% %6.2f%%  %s:%d@." m (pct m total)
        (pct !cum total) f l)
    (truncate ?top rows)

let pp_staleness ppf s =
  Format.fprintf ppf
    "coverage: %.1f%% of fresh blocks sampled@.hot-set overlap: %.1f%% \
     (weighted, 90%% hot sets)@.per-function drift: mean %.2fpp, max %.2fpp@."
    s.coverage_pct s.hot_overlap_pct s.mean_drift_pct s.max_drift_pct

let source_json s =
  Jsonw.Obj
    [
      ("image", Jsonw.Str s.image_digest);
      ("config", Jsonw.Str s.config);
      ("seed", Jsonw.Int s.seed);
      ("workload", Jsonw.Str s.workload);
      ("period", Jsonw.Float s.period);
      ("samples", Jsonw.Int s.samples);
      ("weight", Jsonw.Float s.weight);
    ]

let dump ?top t =
  let total = total_mass t in
  let rows = sorted_rows t in
  let cum = ref 0.0 in
  let row_json ((f, l), m) =
    cum := !cum +. m;
    Jsonw.Obj
      [
        ("function", Jsonw.Str f);
        ("label", Jsonw.int l);
        ("mass", Jsonw.Float m);
        ("flat_pct", Jsonw.Float (pct m total));
        ("sum_pct", Jsonw.Float (pct !cum total));
      ]
  in
  Jsonw.Obj
    [
      ("schema", Jsonw.Str "psd-sampled-profile/1");
      ("sources", Jsonw.List (List.map source_json t.sources));
      ( "total",
        Jsonw.Obj
          [
            ("mass", Jsonw.Float total);
            ("runtime_mass", Jsonw.Float t.runtime_mass);
            ("unknown_mass", Jsonw.Float t.unknown_mass);
            ("rows", Jsonw.int (List.length rows));
          ] );
      ("rows", Jsonw.List (List.map row_json (truncate ?top rows)));
    ]

let to_json ?top t = Jsonw.to_string (dump ?top t)

(* Golden outputs of [Context_match.run]: one block per configuration,
   floats printed as [%h] so any bit drift shows as a changed line.

   Usage: golden.exe [--jobs N]

   A block is a header naming the configuration, the selected matches,
   the standard matches, and the scored candidate views folded to one
   MD5 (with their count).  The output does not depend on [--jobs]; the
   dune rules next to this file diff it at three jobs counts against
   the one expected file, [golden.expected].  An intended output change
   is a [dune promote]. *)

open Relational

let fp_match (m : Matching.Schema_match.t) =
  Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
    m.tgt_attr
    (Condition.to_string m.condition)
    m.confidence

let fp_scored (sv : Ctxmatch.Select_matches.scored_view) =
  Printf.sprintf "%s|%s|[%s]" (View.name sv.view) sv.family_attr
    (String.concat ";" (List.map fp_match sv.view_matches))

let block header (r : Ctxmatch.Context_match.result) =
  let lines l = List.iter (fun m -> print_endline (fp_match m)) l in
  Printf.printf "== %s\n" header;
  Printf.printf "matches: %d\n" (List.length r.matches);
  lines r.matches;
  Printf.printf "standard: %d\n" (List.length r.standard);
  lines r.standard;
  Printf.printf "scored views: %d md5 %s\n" (List.length r.scored)
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map fp_scored r.scored))))

let algorithms =
  [ ("naive", `Naive); ("src", `Src_class); ("tgt", `Tgt_class); ("cluster", `Cluster) ]

let retail ?(algorithms = algorithms) ~jobs (rows, gamma) =
  let seed = 1 in
  let params = { Workload.Retail.rows; target_rows = rows / 2; gamma; seed } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  List.iter
    (fun (alg_name, alg) ->
      List.iter
        (fun (mode, early) ->
          let config =
            Ctxmatch.Config.with_jobs
              ((if early then Ctxmatch.Config.early else Ctxmatch.Config.late)
                 (Ctxmatch.Config.with_seed Ctxmatch.Config.default seed))
              jobs
          in
          let infer = Ctxmatch.Context_match.infer_of alg ~target in
          block
            (Printf.sprintf "retail rows=%d gamma=%d %s %s seed=%d" rows gamma alg_name mode seed)
            (Ctxmatch.Context_match.run ~config ~infer ~source ~target ()))
        [ ("early", true); ("late", false) ])
    algorithms

(* Grades under ClioQualTable, in the tau plateau the integration
   tests use for it. *)
let grades ~jobs =
  let params = { Workload.Grades.default_params with students = 120; seed = 1 } in
  let source = Workload.Grades.narrow params in
  let target = Workload.Grades.wide params in
  let config =
    {
      (Ctxmatch.Config.with_jobs (Ctxmatch.Config.with_seed Ctxmatch.Config.default 1) jobs) with
      tau = 0.4;
      omega = 0.1;
      early_disjuncts = false;
      select = Ctxmatch.Config.Clio_qual_table;
    }
  in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  block "grades students=120 src late clio seed=1"
    (Ctxmatch.Context_match.run ~config ~infer ~source ~target ())

let () =
  let jobs = ref 1 in
  Arg.parse [ ("--jobs", Arg.Set_int jobs, "N worker domains (default 1)") ] ignore
    "golden.exe [--jobs N]";
  List.iter (retail ~jobs:!jobs) [ (120, 2); (320, 8) ];
  (* the shape of the retail-oneshot benchmark workload, under the two
     algorithms that build and read partition families most *)
  retail
    ~algorithms:(List.filter (fun (name, _) -> name = "naive" || name = "src") algorithms)
    ~jobs:!jobs (800, 4);
  grades ~jobs:!jobs

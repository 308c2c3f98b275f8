type select_policy =
  | Qual_table
  | Multi_table
  | Clio_qual_table

type t = {
  tau : float;
  omega : float;
  early_disjuncts : bool;
  select : select_policy;
  significance : float;
  train_fraction : float;
  seed : int;
  max_naive_partitions : int;
  categorical_params : Relational.Categorical.params;
  matchers : Matching.Matcher.t list;
  gated_confidence : bool;
  jobs : int;
  timeout_ms : int option;
  faults : Robust.Fault.arming list;
  kernel : bool;
  filter : Matching.Standard_match.filter option;
}

let default =
  {
    tau = 0.5;
    omega = 0.2;
    early_disjuncts = true;
    select = Qual_table;
    significance = 0.95;
    train_fraction = 2.0 /. 3.0;
    seed = 42;
    max_naive_partitions = 2048;
    categorical_params = Relational.Categorical.default_params;
    matchers = Matching.Matchers.default_suite;
    gated_confidence = true;
    jobs = Domain.recommended_domain_count ();
    timeout_ms = None;
    faults = [];
    kernel = true;
    filter = None;
  }

let with_seed t seed = { t with seed }
let with_timeout_ms t timeout_ms = { t with timeout_ms }
let with_jobs t jobs = { t with jobs }
let with_tau t tau = { t with tau }
let with_omega t omega = { t with omega }
let early t = { t with early_disjuncts = true }
let late t = { t with early_disjuncts = false }
let with_kernel t kernel = { t with kernel }

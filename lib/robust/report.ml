type t = { mutex : Mutex.t; mutable rev_issues : Error.t list; mutable n : int }

let create () = { mutex = Mutex.create (); rev_issues = []; n = 0 }

let add t issue =
  Mutex.lock t.mutex;
  t.rev_issues <- issue :: t.rev_issues;
  t.n <- t.n + 1;
  Mutex.unlock t.mutex

let record t ?severity ?table ?attribute ?line stage message =
  add t (Error.v ?severity ?table ?attribute ?line stage message)

let issues t =
  Mutex.lock t.mutex;
  let l = List.rev t.rev_issues in
  Mutex.unlock t.mutex;
  l

let count t = t.n

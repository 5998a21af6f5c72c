open Ast

let i n = Const (Value.int n)
let b x = Const (Value.bool x)
let s x = Const (Value.str x)
let v x = Var x
let g r = Load_scalar r
let idx r e = Load (r, e)
let arr_len r = Arr_len r

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Mod, a, b)
let ( =: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( &&: ) a b = Binop (And, a, b)
let ( ||: ) a b = Binop (Or, a, b)
let ( ^: ) a b = Binop (Concat, a, b)
let str_len e = Unop (Str_len, e)
let min_ a b = Binop (Min, a, b)
let max_ a b = Binop (Max, a, b)

let mk node = { sid = 0; node }

let skip = mk Skip
let assign x e = mk (Assign (x, e))
let store r ie e = mk (Store (r, ie, e))
let store_g r e = mk (Store_scalar (r, e))
let if_ c b1 b2 = mk (If (c, b1, b2))
let when_ c b1 = mk (If (c, b1, []))
let while_ c body = mk (While (c, body))

let for_ x lo hi body =
  if_ (b true)
    [ assign x lo; while_ (v x <: hi) (body @ [ assign x (v x +: i 1) ]) ]
    []

let input x ch = mk (Input (x, ch))
let output ch e = mk (Output (ch, e))
let send ch e = mk (Send (ch, e))
let recv x ch = mk (Recv (x, ch))
let try_recv ok x ch = mk (Try_recv (ok, x, ch))
let lock m = mk (Lock m)
let unlock m = mk (Unlock m)
let spawn fn args = mk (Spawn (fn, args))
let call ?dest fn args = mk (Call (dest, fn, args))
let return e = mk (Return e)
let assert_ e msg = mk (Assert (e, msg))
let fail msg = mk (Fail msg)
let yield = mk Yield
let atomic body = mk (Atomic body)

let func fname params body = { fname; params; body }
let scalar r v0 = Scalar_decl (r, v0)
let array r n v0 = Array_decl (r, n, v0)

let program ~name ~regions ~inputs ~main funcs =
  Label.program { name; funcs; main; regions; input_domains = inputs }

type t =
  | Vint of int
  | Vbool of bool
  | Vstr of string
  | Vunit

let equal a b =
  match a, b with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vstr x, Vstr y -> String.equal x y
  | Vunit, Vunit -> true
  | (Vint _ | Vbool _ | Vstr _ | Vunit), _ -> false

let compare = Stdlib.compare

let to_string = function
  | Vint n -> string_of_int n
  | Vbool b -> string_of_bool b
  | Vstr s -> Printf.sprintf "%S" s
  | Vunit -> "()"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let size_bytes = function
  | Vint _ -> 8
  | Vbool _ -> 1
  | Vstr s -> String.length s
  | Vunit -> 0

let int n = Vint n
let bool b = Vbool b
let str s = Vstr s
let unit = Vunit

exception Type_error of string

let as_int = function
  | Vint n -> n
  | v -> raise (Type_error ("expected int, got " ^ to_string v))

let as_bool = function
  | Vbool b -> b
  | v -> raise (Type_error ("expected bool, got " ^ to_string v))

let as_str = function
  | Vstr s -> s
  | v -> raise (Type_error ("expected string, got " ^ to_string v))

type tagged = { v : t; taint : Taint.t }

let untainted v = { v; taint = Taint.empty }
let tag v taint = { v; taint }

let pp_tagged ppf { v; taint } =
  if Taint.is_empty taint then pp ppf v
  else Format.fprintf ppf "%a%a" pp v Taint.pp taint

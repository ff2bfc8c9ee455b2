# census.awk: statement census over a merged coverage profile.
#
#   awk -f .github/census.awk .github/census-allow.txt func.txt cov.txt
#
# func.txt is `go tool cover -func` output, used only for where each function
# starts; cov.txt is the textfmt profile the statements are counted from, so a
# function with no statements (an empty body) is never a row, whatever
# percentage -func prints for it. Output: uncovered/total statements per
# file, then every function under internal/ with at least one statement and
# none run, each either allowed (with the allowlist's reason) or UNLISTED.
# Exits 1 on an UNLISTED row or on an allowlist entry that names no such
# row, so the allowlist stays exactly the set of unrun functions.
#
# Allowlist lines are `pkg.Func` or `pkg.Recv.Method`, then the reason;
# blank lines and lines starting with # are skipped.

FILENAME == ARGV[1] {
	if (NF > 0 && $1 !~ /^#/) {
		reason = $0
		sub(/^[^ \t]+[ \t]+/, "", reason)
		allow[$1] = reason
	}
	next
}

FILENAME == ARGV[2] {
	if ($1 == "total:")
		next
	split($1, a, ":")
	nf[a[1]]++
	fstart[a[1], nf[a[1]]] = a[2] + 0
	fname[a[1], nf[a[1]]] = $2
	next
}

FNR > 1 {
	# github.com/m/internal/p/f.go:12.34,14.2 <statements> <count>
	if (!($1 in bstmts))
		blocks[++nb] = $1
	bstmts[$1] = $2
	if ($3 > 0)
		bran[$1] = 1
}

END {
	for (i = 1; i <= nb; i++) {
		b = blocks[i]
		split(b, a, ":")
		file = a[1]
		split(a[2], p, ".")
		line = p[1] + 0
		total[file] += bstmts[b]
		stmts += bstmts[b]
		if (b in bran) {
			covered += bstmts[b]
		} else {
			unrun[file] += bstmts[b]
		}
		# The block belongs to the last function starting at or before it.
		best = 0
		for (j = 1; j <= nf[file]; j++)
			if (fstart[file, j] <= line && (best == 0 || fstart[file, j] > fstart[file, best]))
				best = j
		if (best == 0)
			continue
		fst[file, best] += bstmts[b]
		if (b in bran)
			frun[file, best] += bstmts[b]
	}
	for (file in total)
		printf "%-72s %5d/%-5d unrun\n", file, unrun[file], total[file] | "sort"
	close("sort")
	printf "total: %d of %d statements run (%.1f%%)\n\n", covered, stmts, 100 * covered / stmts

	status = 0
	for (k in fst) {
		split(k, a, SUBSEP)
		file = a[1]
		j = a[2]
		if (file !~ /\/internal\// || fst[k] == 0 || frun[k] > 0)
			continue
		key = funcKey(file, fstart[file, j], fname[file, j])
		seen[key] = 1
		if (key in allow) {
			row = sprintf("allowed   %-32s %s", key, allow[key])
		} else {
			row = sprintf("UNLISTED  %-32s %s:%d, %d statements", key, file, fstart[file, j], fst[k])
			status = 1
		}
		print row | "sort"
	}
	close("sort")
	for (key in allow)
		if (!(key in seen)) {
			printf "STALE     %-32s is on the allowlist but ran or is gone\n", key
			status = 1
		}
	exit status
}

# funcKey names the function at file:line as pkg.Func or pkg.Recv.Method,
# reading the receiver from the declaration in the checkout.
function funcKey(file, line, name,    src, pkg, decl, n, recv) {
	src = file
	sub(/^.*\/internal\//, "internal/", src)
	pkg = src
	sub(/^internal\//, "", pkg)
	sub(/\/[^\/]*$/, "", pkg)
	n = 0
	while ((getline decl < src) > 0)
		if (++n == line)
			break
	close(src)
	if (decl ~ /^func \(/) {
		recv = decl
		sub(/^func \(/, "", recv)
		sub(/\).*$/, "", recv)
		sub(/^.* /, "", recv)
		sub(/^\*/, "", recv)
		sub(/\[.*$/, "", recv)
		return pkg "." recv "." name
	}
	return pkg "." name
}

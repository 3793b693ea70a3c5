/*
 * Projected Newton ascent for the weighted sum-rate dual, row by row.
 *
 * A C99 port of uavwpt/_kernels/_ref.py's solve_pga, operation for
 * operation; _ref.py documents the algorithm and is the reference the
 * tests compare this file with.  Each row b maximises
 *
 *     sum_k dw[k] * logdet(A_k),  A_k = I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H,
 *
 * over {p >= 0, sum p <= budget[b]}.  h is (B, K, N) complex128 read as
 * float64 (re, im) pairs, dw and p are (B, K), everything C-contiguous.
 * Rows are solved one after another and never mix, so a row's result does
 * not depend on what else is in the batch.  Sums run in index order, as
 * _ref's np.add.accumulate sums do; _ref's BLAS and LAPACK calls (the Gram
 * product, the face solve, dot products) and numpy's complex arithmetic may
 * round differently, so results agree with _ref to rounding, not bit for
 * bit.
 *
 * An evaluation never forms A_k.  It keeps an upper-triangular R with a
 * real positive diagonal and R^H R = A_k, starting from I, beside the
 * plane Z = R^{-H} H^T, one (N, K) array updated in place: user k is
 * rotated in by N Givens rotations of [R | Z] and the row
 * [sqrt(p[k]/sigma2) h_k^H | 0] (Golub and Van Loan, Matrix Computations,
 * section 6.5), skipped where p[k] = 0.  Each log-det increment is one
 * log1p((p[k]/sigma2) ||R_{k-1}^{-H} h_k||^2) and the gradient is read from
 * the norms of Z's columns.  The face Hessian needs h_m^H A_k^{-1} h_n; it
 * takes them from the row's Gram matrix H^H H, formed once per row, by one
 * rank-one downdate per user (about K^3 / 2 complex products), in
 * newton_step, on the free face only: once per iteration, never at a
 * rejected trial point or at the point a row stops at.  The whole
 * workspace, one malloc per call, is 2 N (N + K) + 2 (N + K) + 6 K^2 + 12 K
 * doubles (17 kB at K = 16, N = 8).
 *
 * Returns 0; 1 when an objective is not finite: NaN or infinite channels,
 * or a negative sigma2 that makes some A_k indefinite (finite channels and
 * a positive sigma2 never give it, short of overflow); or 2 when the
 * workspace cannot be allocated.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_BACKTRACK 60 /* 0.5**60 is far below any meaningful step */
#define RIDGE 1e-12      /* relative to a face's largest curvature */

/* np.maximum: NaN in either argument wins. */
static double np_max(double a, double b) { return (a >= b || a != a) ? a : b; }

typedef struct {
    int64_t K, N;
    double *rz;    /* (N, N + K) pairs: [R_k | Z_k], R_k upper triangular */
    double *ext;   /* (N + K) pairs: the row being rotated into rz */
    double *quad;  /* (K,): ||R_k^{-H} h_m||^2, the squared norms of Z_k's columns */
    double *gram;  /* (K, K) pairs: H^H H of the row, upper triangle */
    double *down;  /* (K, K) pairs: its downdates G^(k), upper triangle */
    double *col;   /* (K,) pairs: column k of G^(k-1) */
    double *face;  /* (K, K + 2): the face system and its two right-hand sides */
    double *on_face; /* (K,): 1.0 for the users on the free face, else 0.0 */
    double *g, *hess;  /* the row's current gradient (K) and face Hessian (K, K) */
    double *v, *u, *trial, *step, *cand_g;
} Work;

static double *take(double **cursor, int64_t count)
{
    double *out = *cursor;
    *cursor += count;
    return out;
}

static int work_init(Work *w, int64_t K, int64_t N)
{
    int64_t total = 2 * N * (N + K) + 2 * (N + K) + 6 * K * K + 12 * K;
    double *cursor = malloc((size_t)(total > 0 ? total : 1) * sizeof(double));
    if (cursor == NULL) return 0;
    w->K = K;
    w->N = N;
    w->rz = take(&cursor, 2 * N * (N + K));
    w->ext = take(&cursor, 2 * (N + K));
    w->quad = take(&cursor, K);
    w->gram = take(&cursor, 2 * K * K);
    w->down = take(&cursor, 2 * K * K);
    w->col = take(&cursor, 2 * K);
    w->face = take(&cursor, K * (K + 2));
    w->on_face = take(&cursor, K);
    w->v = take(&cursor, K);
    w->u = take(&cursor, K);
    w->trial = take(&cursor, K);
    w->step = take(&cursor, K);
    w->g = take(&cursor, K);
    w->hess = take(&cursor, K * K);
    w->cand_g = take(&cursor, K);
    return 1;
}

/* The Gram matrix H^H H of one row, [m, n] = h_m^H h_n, upper triangle
 * (_ref.solve_pga forms it once per row). */
static void invariants(Work *w, const double *h)
{
    int64_t K = w->K, N = w->N;
    for (int64_t m = 0; m < K; m++)
        for (int64_t n = m; n < K; n++) {
            const double *hm = h + 2 * m * N, *hn = h + 2 * n * N;
            double gr = 0.0, gi = 0.0;
            for (int64_t j = 0; j < N; j++) {
                /* conj(h_m[j]) * h_n[j] */
                gr += hm[2 * j] * hn[2 * j] + hm[2 * j + 1] * hn[2 * j + 1];
                gi += hm[2 * j] * hn[2 * j + 1] - hm[2 * j + 1] * hn[2 * j];
            }
            w->gram[2 * (m * K + n)] = gr;
            w->gram[2 * (m * K + n) + 1] = gi;
        }
}

/* Rotate sqrt(s) h_k^H into R by N Givens rotations, Z's columns carried
 * along (_ref._rotate): rotation j sets R[j, j] to the norm of
 * (R[j, j], ext[j]) and ext[j] to zero. */
static void rotate(Work *w, const double *hk, double rs)
{
    int64_t N = w->N, W = N + w->K;
    double *ext = w->ext;
    for (int64_t l = 0; l < W; l++) {
        ext[2 * l] = l < N ? rs * hk[2 * l] : 0.0;
        ext[2 * l + 1] = l < N ? rs * -hk[2 * l + 1] : 0.0;
    }
    for (int64_t j = 0; j < N; j++) {
        double *row = w->rz + 2 * j * W;
        double d = row[2 * j], ar = ext[2 * j], ai = ext[2 * j + 1];
        double rho = sqrt(d * d + (ar * ar + ai * ai)), inv = 1.0 / rho;
        double c = d * inv, sr = ar * inv, si = ai * inv, ci = -si; /* sn, conj(sn) */
        row[2 * j] = rho;
        for (int64_t l = j + 1; l < W; l++) {
            /* (x, y) <- (c x + conj(sn) y, c y - sn x) */
            double xr = row[2 * l], xi = row[2 * l + 1];
            double yr = ext[2 * l], yi = ext[2 * l + 1];
            row[2 * l] = c * xr + (sr * yr - ci * yi);
            row[2 * l + 1] = c * xi + (sr * yi + ci * yr);
            ext[2 * l] = c * yr - (sr * xr - si * xi);
            ext[2 * l + 1] = c * yi - (sr * xi + si * xr);
        }
    }
}

/*
 * The objective and the gradient at p from one pass over the users
 * (_ref.evaluate).  R starts at I and Z at H^T; user k is rotated in,
 * except where p[k] = 0, so A_k is never formed.  Before user k, column k
 * of Z is R_{k-1}^{-H} h_k, so
 * logdet(A_k) - logdet(A_{k-1}) = log1p(p[k] / sigma2 ||Z[:, k]||^2);
 * after it, grad[m] += dw[k] ||Z[:, m]||^2 / sigma2 for m <= k where
 * dw[k] != 0.  value = sum_k dw[k] logdet(A_k).  Returns 0 if the value is
 * not finite (NaN or infinite input, or an A_k not positive definite).
 */
static int evaluate(Work *w, const double *h, const double *dw, const double *p,
                    double sigma2, double *value, double *grad)
{
    int64_t K = w->K, N = w->N, W = N + K;
    double *rz = w->rz, *quad = w->quad;
    double logdet = 0.0, total = 0.0;
    for (int64_t i = 0; i < N; i++) {
        double *row = rz + 2 * i * W;
        for (int64_t j = i; j < N; j++) {
            row[2 * j] = i == j ? 1.0 : 0.0;
            row[2 * j + 1] = 0.0;
        }
        for (int64_t m = 0; m < K; m++) {
            row[2 * (N + m)] = h[2 * (m * N + i)];
            row[2 * (N + m) + 1] = h[2 * (m * N + i) + 1];
        }
    }
    for (int64_t m = 0; m < K; m++) grad[m] = 0.0;
    for (int64_t k = 0; k < K; k++) {
        double s = p[k] / sigma2, q = 0.0;
        for (int64_t j = 0; j < N; j++) {
            const double *z = rz + 2 * (j * W + N + k);
            q = j == 0 ? z[0] * z[0] + z[1] * z[1] : q + (z[0] * z[0] + z[1] * z[1]);
        }
        double inc = log1p(s * q);
        logdet = k == 0 ? inc : logdet + inc;
        double term = dw[k] * logdet;
        total = k == 0 ? term : total + term;
        if (s != 0.0) rotate(w, h + 2 * k * N, sqrt(s));
        if (dw[k] == 0.0) continue; /* its gradient terms are zero */
        for (int64_t j = 0; j < N; j++) {
            const double *z = rz + 2 * (j * W + N);
            for (int64_t m = 0; m <= k; m++) {
                double x = z[2 * m] * z[2 * m] + z[2 * m + 1] * z[2 * m + 1];
                quad[m] = j == 0 ? x : quad[m] + x;
            }
        }
        for (int64_t m = 0; m <= k; m++) grad[m] += dw[k] * quad[m] / sigma2;
    }
    *value = total + 0.0; /* + 0.0 turns an all-zero -0.0 sum into +0.0 */
    return isfinite(*value);
}

/*
 * The Hessian on the free face at p (_ref.face_hessian).  G^(k)[m, n] =
 * h_m^H A_k^{-1} h_n comes from the row's Gram matrix by one rank-one
 * downdate per user with p[k] > 0, on the upper triangle:
 * G <- G - s g g^H / (1 + s G[k, k]) with g = G[:, k] and s = p[k] / sigma2.
 * For users m, n both on the face,
 * hess[m, n] = -sum_{k >= max(m, n)} dw[k] |G^(k)[m, n]|^2 / sigma2^2,
 * summed in k order over dw[k] != 0.  Entries off the face are not written.
 */
static void face_hessian(Work *w, const double *dw, const double *p, double sigma2)
{
    int64_t K = w->K;
    const double *on_face = w->on_face;
    double *hess = w->hess, *G = w->down, *col = w->col;
    memcpy(G, w->gram, (size_t)(2 * K * K) * sizeof(double));
    /* -0.0, not 0.0, is the identity of floating-point addition. */
    for (int64_t m = 0; m < K; m++)
        for (int64_t n = 0; n < K; n++)
            if (on_face[m] && on_face[n]) hess[m * K + n] = -0.0;
    for (int64_t k = 0; k < K; k++) {
        double s = p[k] / sigma2;
        if (s != 0.0) {
            for (int64_t m = 0; m < K; m++) { /* g, read from the upper triangle */
                const double *at = m <= k ? G + 2 * (m * K + k) : G + 2 * (k * K + m);
                col[2 * m] = at[0];
                col[2 * m + 1] = m <= k ? at[1] : -at[1];
            }
            double beta = s / (1.0 + s * G[2 * (k * K + k)]);
            for (int64_t m = 0; m < K; m++) {
                double br = beta * col[2 * m], bi = beta * col[2 * m + 1];
                double *row = G + 2 * m * K;
                for (int64_t n = m; n < K; n++) {
                    /* G[m, n] -= (beta g_m) conj(g_n) */
                    double yr = col[2 * n], yi = -col[2 * n + 1];
                    row[2 * n] -= br * yr - bi * yi;
                    row[2 * n + 1] -= br * yi + bi * yr;
                }
            }
        }
        if (dw[k] == 0.0) continue;
        double weight = -dw[k] / sigma2 / sigma2;
        for (int64_t m = 0; m <= k; m++) {
            if (!on_face[m]) continue;
            for (int64_t n = m; n <= k; n++) {
                if (!on_face[n]) continue;
                double gr = G[2 * (m * K + n)], gi = G[2 * (m * K + n) + 1];
                double t = (gr * gr + gi * gi) * weight;
                hess[m * K + n] += t;
                if (n != m) hess[n * K + m] += t;
            }
        }
    }
}

/* Euclidean projection of v onto {p >= 0, sum p <= budget} (_ref.project_simplex). */
static void project_simplex(Work *w, const double *v, double budget, double *out)
{
    int64_t K = w->K;
    double *u = w->u;
    double total = 0.0;
    for (int64_t m = 0; m < K; m++) {
        out[m] = np_max(v[m], 0.0);
        total = m == 0 ? out[m] : total + out[m];
    }
    if (total <= budget) return;
    /* u = v sorted in descending order (insertion sort; K is small). */
    for (int64_t m = 0; m < K; m++) {
        int64_t i = m;
        while (i > 0 && u[i - 1] < v[m]) {
            u[i] = u[i - 1];
            i--;
        }
        u[i] = v[m];
    }
    int64_t rho = K - 1;
    double cumulative = 0.0, top = 0.0;
    int found = 0;
    for (int64_t m = 0; m < K; m++) {
        cumulative = m == 0 ? u[0] : cumulative + u[m];
        if (u[m] - (cumulative - budget) / (double)(m + 1) > 0.0) {
            rho = m;
            top = cumulative;
            found = 1;
        }
    }
    if (!found) top = cumulative;
    double theta = (top - budget) / ((double)rho + 1.0);
    total = 0.0;
    for (int64_t m = 0; m < K; m++) {
        out[m] = budget == 0.0 ? 0.0 : np_max(v[m] - theta, 0.0);
        total = m == 0 ? out[m] : total + out[m];
    }
    /* theta cancels when v is far above the budget: scale the row onto the
     * budget, less a margin that covers the rounding of product and sum. */
    double margin = 1.0 - 4.0 * (double)K * DBL_EPSILON;
    double scale = total > 0.0 ? budget * margin / total : 1.0;
    for (int64_t m = 0; m < K; m++) out[m] *= scale;
}

/* First-order optimality residual of one row (_ref.kkt_residual). */
static double kkt_residual(int64_t K, const double *p, const double *g, double budget,
                           double eps_act)
{
    double mu = g[0], spread = 0.0, stationary = 0.0, sum = p[0];
    for (int64_t m = 1; m < K; m++) {
        mu = np_max(mu, g[m]);
        sum += p[m];
    }
    for (int64_t m = 0; m < K; m++) {
        int active = p[m] > eps_act;
        spread = np_max(spread, active ? fabs(g[m] - mu) : 0.0);
        stationary = np_max(stationary, active ? fabs(g[m]) : 0.0);
    }
    if (!(mu > 0.0)) return stationary / fmax(1.0, fabs(mu));
    double r_grad = spread / mu;
    double r_budget = fabs(sum - budget) / np_max(budget, eps_act);
    return r_budget > r_grad ? r_budget : r_grad;
}

static double dot(int64_t K, const double *x, const double *y)
{
    double out = 0.0;
    for (int64_t m = 0; m < K; m++) out += x[m] * y[m];
    return out;
}

/* The gradient scaled so that its largest entry is the budget (_ref._gradient_step). */
static void gradient_step(int64_t K, const double *g, double cap, double *step)
{
    double top = fabs(g[0]);
    for (int64_t m = 1; m < K; m++) top = np_max(top, fabs(g[m]));
    double scale = cap / top;
    for (int64_t m = 0; m < K; m++) step[m] = g[m] * scale;
}

/*
 * The search direction of one row and whether it is the Newton one
 * (_ref._newton_step): the Newton direction on the free face under
 * sum(d) = 0, from (ridge - H) [x y] = [g 1] by Gaussian elimination with
 * partial pivoting, else the gradient step.  H is built here, on the face
 * only, at p.
 */
static int newton_step(Work *w, const double *p, const double *g, const double *dw,
                       double sigma2, double cap, double eps_act, double *step)
{
    int64_t K = w->K, W = K + 2;
    double *a = w->face, *hess = w->hess;
    double top = g[0];
    for (int64_t m = 1; m < K; m++) top = np_max(top, g[m]);
    /* The free face: users with power plus those at the largest gradient. */
    for (int64_t m = 0; m < K; m++) w->on_face[m] = p[m] > eps_act || g[m] >= top;
    face_hessian(w, dw, p, sigma2);
    for (int64_t m = 0; m < K; m++) {
        for (int64_t n = 0; n < K; n++)
            a[m * W + n] = w->on_face[m] && w->on_face[n] ? -hess[m * K + n] : 0.0;
        a[m * W + K] = w->on_face[m] ? g[m] : 0.0;
        a[m * W + K + 1] = w->on_face[m] ? 1.0 : 0.0;
    }
    double scale = a[0];
    for (int64_t m = 1; m < K; m++) scale = np_max(scale, a[m * W + m]);
    for (int64_t m = 0; m < K; m++)
        a[m * W + m] += w->on_face[m] ? (scale > 0.0 ? RIDGE * scale : 1.0) : 1.0;
    for (int64_t c = 0; c < K; c++) {
        int64_t pivot = c;
        for (int64_t i = c + 1; i < K; i++)
            if (fabs(a[i * W + c]) > fabs(a[pivot * W + c])) pivot = i;
        if (pivot != c)
            for (int64_t j = c; j < W; j++) {
                double t = a[c * W + j];
                a[c * W + j] = a[pivot * W + j];
                a[pivot * W + j] = t;
            }
        for (int64_t i = c + 1; i < K; i++) {
            double f = a[i * W + c] / a[c * W + c];
            for (int64_t j = c + 1; j < W; j++) a[i * W + j] -= f * a[c * W + j];
        }
    }
    for (int64_t c = K - 1; c >= 0; c--)
        for (int64_t r = K; r < W; r++) {
            double s = a[c * W + r];
            for (int64_t j = c + 1; j < K; j++) s -= a[c * W + j] * a[j * W + r];
            a[c * W + r] = s / a[c * W + c];
        }
    double sx = 0.0, sy = 0.0;
    for (int64_t m = 0; m < K; m++) {
        sx += a[m * W + K];
        sy += a[m * W + K + 1];
    }
    double ratio = sx / sy;
    for (int64_t m = 0; m < K; m++) step[m] = a[m * W + K] - ratio * a[m * W + K + 1];
    double ascent = dot(K, g, step);
    if (ascent > 0.0 && isfinite(ascent)) return 1;
    gradient_step(K, g, cap, step);
    return 0;
}

/* The one entry: see the header comment for the arrays and the return value. */
int solve_pga_batch(int64_t B, int64_t K, int64_t N, const double *h, const double *dw,
                    double sigma2, const double *budget, double tol, double kkt_tol,
                    int64_t max_iter, double armijo, double shrink, double *p_out,
                    double *f_out, int64_t *it_out, double *kkt_out, unsigned char *conv_out)
{
    Work w;
    if (!work_init(&w, K, N)) return 2;
    int status = 0;
    for (int64_t b = 0; b < B && status == 0; b++) {
        const double *hb = h + 2 * b * K * N, *db = dw + b * K;
        double *p = p_out + b * K, *g = w.g;
        double cap = budget[b], f, kkt = 0.0;
        int64_t iteration = 0;
        int converged = 1;
        f_out[b] = 0.0;
        for (int64_t m = 0; m < K; m++) p[m] = 0.0;
        if (K == 0 || !(cap > 0.0)) { /* optimal at p = 0 */
            it_out[b] = 0;
            kkt_out[b] = 0.0;
            conv_out[b] = 1;
            continue;
        }
        double eps_act = 1e-9 * cap;
        for (int64_t m = 0; m < K; m++) p[m] = cap / (double)K;
        invariants(&w, hb);
        if (!evaluate(&w, hb, db, p, sigma2, &f, g)) {
            status = 1;
            break;
        }
        kkt = kkt_residual(K, p, g, cap, eps_act);
        if (!(kkt <= kkt_tol)) {
            converged = 0;
            for (iteration = 1; iteration <= max_iter; iteration++) {
                double *step = w.step, *trial = w.trial, *v = w.v;
                int newton = newton_step(&w, p, g, db, sigma2, cap, eps_act, step);
                double t = 1.0, f_cand = 0.0;
                int accepted = 0;
                for (int attempt = 0; attempt < MAX_BACKTRACK; attempt++) {
                    for (int64_t m = 0; m < K; m++) v[m] = p[m] + t * step[m];
                    project_simplex(&w, v, cap, trial);
                    for (int64_t m = 0; m < K; m++) v[m] = trial[m] - p[m];
                    double ascent = dot(K, g, v);
                    /* Ascent below the rounding of f cannot be told from none. */
                    if (!(ascent > DBL_EPSILON * fabs(f))) {
                        /* A Newton arc without ascent turns to the gradient
                         * arc, unless the row meets the KKT tolerance: then
                         * it is numerically stationary, as is a row whose
                         * gradient arc has no ascent. */
                        if (!newton || !(kkt > kkt_tol)) break;
                        newton = 0;
                        t = 1.0;
                        gradient_step(K, g, cap, step);
                        continue;
                    }
                    if (!evaluate(&w, hb, db, trial, sigma2, &f_cand, w.cand_g)) {
                        status = 1;
                        break;
                    }
                    if (f_cand >= f + armijo * ascent) {
                        accepted = 1;
                        break;
                    }
                    t *= shrink;
                }
                if (status != 0) break;
                if (!accepted) { /* numerically stationary */
                    converged = kkt <= kkt_tol;
                    break;
                }
                double rel_change = fabs(f_cand - f) / np_max(fabs(f_cand), 1e-300);
                memcpy(p, trial, (size_t)K * sizeof(double));
                memcpy(g, w.cand_g, (size_t)K * sizeof(double));
                f = f_cand;
                kkt = kkt_residual(K, p, g, cap, eps_act);
                if (rel_change <= tol && kkt <= kkt_tol) {
                    converged = 1;
                    break;
                }
            }
            if (iteration > max_iter) iteration = max_iter > 0 ? max_iter : 0;
        }
        f_out[b] = f;
        it_out[b] = iteration;
        kkt_out[b] = kkt;
        conv_out[b] = (unsigned char)converged;
    }
    free(w.rz);
    return status;
}

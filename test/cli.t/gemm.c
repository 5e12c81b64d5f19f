void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
}

@ThreadSafe class PrimitiveInTypeArguments {
  private java.util.List<int[]> rows;
  private java.util.List<int> counts;
}
